package main

import (
	"fmt"
	"slices"
	"time"

	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// arrival is one open-loop request: a GET, a SET, or a multiget of
// several keys. It is a latency sample once; each key it names is an op.
type arrival struct {
	id    uint32
	ph    *phase
	due   sim.Time
	isSet bool
	ver   uint32 // version written, for a SET
	keys  []int
	k1    [1]int // backing for single-key arrivals
	done  bool

	// Traced window only: whether the tracer follows this arrival, and
	// the virtual instants it observed from outside (zero = not seen).
	// See tracer.segments.
	tracked                      bool
	call, send, srv0, srv1, resp sim.Time
}

// phase is one stretch of arrivals at a fixed rate: the measured window,
// or one step of the rate ladder. Arrivals due in [from, to) are its
// latency samples; earlier ones are its warm-up.
type phase struct {
	rate     float64 // arrivals per second
	from, to sim.Time

	lat       []int64 // due -> callback, virtual ns
	delay     []int64 // due -> submit handler ran, virtual ns
	arrivals  int     // samples generated
	inTime    int     // of those, completed before the phase ended
	opsInTime uint64  // ops completed inside [from, to)
	reads     uint64  // keys read by samples
	hits      uint64
	failed    uint64 // ops
}

// target is the topology the engine drives.
type target interface {
	// submit is called at the arrival's due time, outside any core: it
	// hands the arrival to one of the client machine's cores.
	submit(a *arrival)
}

// engine generates the arrivals, scores the completions and keeps the
// correctness verdict. One engine drives one topology for one run.
type engine struct {
	k   *sim.Kernel
	sp  *spec
	pop *population
	tgt target
	tr  *tracer // nil on a plain run

	arr     *rng // inter-arrival gaps
	mix     *rng // GET or SET
	ph      *phase
	nextDue float64
	next    *sim.Event // the pending arrival event
	nextID  uint32

	outstanding int    // arrivals submitted and not yet called back
	opsDone     uint64 // ops completed, all phases
	attempted   uint64 // ops
	failed      uint64
	failures    []string
}

const maxFailuresKept = 20

func newEngine(k *sim.Kernel, sp *spec, pop *population, seed uint64, tr *tracer) *engine {
	return &engine{k: k, sp: sp, pop: pop, tr: tr, arr: newRng(seed, 3), mix: newRng(seed, 4)}
}

// vnow is the virtual instant inside a handler: its dispatch time plus
// the CPU it has been charged so far.
func vnow(c *event.Ctx) sim.Time { return c.Now() + c.Charged() }

// begin starts a phase: warm of unmeasured arrivals, then length of
// samples, all at rate. The caller advances the kernel.
func (e *engine) begin(rate float64, warm, length sim.Time) *phase {
	if e.next != nil {
		e.next.Cancel() // the previous phase's closing event
	}
	now := e.k.Now()
	n := int(1.02*rate*float64(length)/1e9) + 1024 // room for a Poisson count five deviations high
	e.ph = &phase{rate: rate, from: now + warm, to: now + warm + length,
		lat: make([]int64, 0, n), delay: make([]int64, 0, n)}
	e.nextDue = float64(now) + e.arr.exp(1e9/rate)
	e.next = e.k.At(sim.Time(e.nextDue), e.fire)
	return e.ph
}

// fire is the arrival process: one kernel event per arrival, each
// scheduling the next, until the phase's end.
func (e *engine) fire() {
	ph := e.ph
	due := sim.Time(e.nextDue)
	if due >= ph.to {
		return
	}
	sp := e.tr.begin(spLoadGen, nil, int32(e.nextID))
	a := &arrival{id: e.nextID, ph: ph, due: due}
	e.nextID++
	switch {
	case e.mix.float() >= e.sp.getFrac:
		a.isSet = true
		a.k1[0] = e.pop.nextKey()
		a.keys = a.k1[:]
		a.ver = e.pop.newVersion(a.k1[0])
	case e.sp.multiget > 1:
		a.keys = make([]int, e.sp.multiget)
		for i := range a.keys {
			a.keys[i] = e.pop.nextKey()
		}
	default:
		a.k1[0] = e.pop.nextKey()
		a.keys = a.k1[:]
	}
	if due >= ph.from {
		ph.arrivals++
		if !a.isSet {
			ph.reads += uint64(len(a.keys))
		}
	}
	e.outstanding++
	e.attempted += uint64(len(a.keys))
	e.tr.track(a)
	e.tr.end(sp, nil)

	e.tgt.submit(a)
	e.nextDue += e.arr.exp(1e9 / ph.rate)
	e.next = e.k.At(max(sim.Time(e.nextDue), e.k.Now()), e.fire)
}

// submitted is called first thing in the arrival's submit handler.
func (e *engine) submitted(c *event.Ctx, a *arrival) {
	if a.due >= a.ph.from {
		a.ph.delay = append(a.ph.delay, int64(vnow(c)-a.due))
	}
}

// fail records one failed op of arrival a.
func (e *engine) fail(a *arrival, format string, args ...any) {
	e.failed++
	a.ph.failed++
	if len(e.failures) < maxFailuresKept {
		e.failures = append(e.failures, fmt.Sprintf("op %d: %s", a.id, fmt.Sprintf(format, args...)))
	}
}

// violation records a broken invariant that belongs to no single op.
func (e *engine) violation(format string, args ...any) {
	e.failed++
	if len(e.failures) < maxFailuresKept {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// read scores one key of a read arrival: status is the protocol status
// the program answered with, val the value on a hit.
func (e *engine) read(a *arrival, k int, status uint16, val []byte) {
	measured := a.due >= a.ph.from
	switch status {
	case statusOK:
		if err := e.pop.check(k, val); err != nil {
			e.fail(a, "GET: %v", err)
			return
		}
		if measured {
			a.ph.hits++
		}
	case statusNoKey:
		if !e.sp.bounded {
			e.fail(a, "GET missed key %d, which was stored and never deleted", k)
		}
	default:
		e.fail(a, "GET key %d answered status %#x", k, status)
	}
}

// wrote scores a SET arrival's acknowledgment.
func (e *engine) wrote(a *arrival, status uint16) {
	if status != statusOK {
		e.fail(a, "SET key %d version %d answered status %#x", a.keys[0], a.ver, status)
	}
}

// complete is called once per arrival, after its keys were scored.
func (e *engine) complete(c *event.Ctx, a *arrival) {
	if a.done {
		e.fail(a, "callback fired twice")
		return
	}
	a.done = true
	e.outstanding--
	e.opsDone += uint64(len(a.keys))
	now := vnow(c)
	ph := a.ph
	if now >= ph.from && now < ph.to {
		ph.opsInTime += uint64(len(a.keys))
	}
	if a.due >= ph.from {
		ph.lat = append(ph.lat, int64(now-a.due))
		if now < ph.to {
			ph.inTime++
		}
		e.tr.segments(a, now)
	}
	e.tr.untrack(a)
}

// run advances the kernel by d, wall-timed, and reports the ops that
// completed meanwhile.
func (e *engine) run(d sim.Time) (wall time.Duration, ops uint64) {
	ops0 := e.opsDone
	t := time.Now()
	e.k.RunFor(d)
	return time.Since(t), e.opsDone - ops0
}

// drain lets in-flight arrivals finish after a phase stops generating,
// then sorts the phase's samples for the percentiles to come. A callback
// that never fires is a failure of its own.
func (e *engine) drain(limit sim.Time) {
	deadline := e.k.Now() + limit
	for e.outstanding > 0 && e.k.Now() < deadline {
		e.k.RunFor(sim.Millisecond)
	}
	if e.outstanding > 0 {
		e.violation("%d arrivals never called back within %v of the phase's end", e.outstanding, limit)
		e.outstanding = 0
	}
	slices.Sort(e.ph.lat)
	slices.Sort(e.ph.delay)
}

// percentile is nearest-rank over a sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
