package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ebbrt/internal/sim"
)

// topology is a built and warmed system under test plus the engine
// driving it; exactly one of pair and cl is set.
type topology struct {
	e    *engine
	pair *pairTopo
	cl   *clusterTopo
}

func build(sp *spec, seed uint64, traced bool) (*topology, error) {
	if sp.cluster {
		return buildCluster(sp, seed, traced)
	}
	return buildPair(sp, seed, traced)
}

// window is one measured window: set-up, twelve wall-timed slices of one
// simulation, and everything read before and after them.
type window struct {
	topo  *topology
	ph    *phase
	virt  sim.Time // measured virtual length
	setup time.Duration

	sliceWall []time.Duration
	sliceOps  []uint64
	wall      time.Duration // sum of slices
	ops       uint64        // ops completed inside the window

	mallocs    uint64 // MemStats deltas over the slices
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration // getrusage user+system over the slices
	liveHeap   uint64        // HeapAlloc after a GC at the window's end
	backlog    int           // arrivals in flight at the window's end
	cnt        counters      // public counters over the slices
}

// setUp builds the topology, boots it, stores the keys and runs the
// virtual warm-up; the kernel is left at the start of the measured
// window. This is the stretch setup_s times.
func setUp(sp *spec, seed uint64, virt sim.Time, traced bool) (*topology, *phase, time.Duration, error) {
	t0 := time.Now()
	topo, err := build(sp, seed, traced)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	ph := topo.e.begin(sp.rate, sp.warm, virt)
	topo.e.k.RunFor(sp.warm)
	return topo, ph, time.Since(t0), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one window of the given virtual length and drains it.
func measure(sp *spec, seed uint64, virt sim.Time, traced bool) (*window, error) {
	slice := virt / nSlices
	w := &window{virt: slice * nSlices}
	var err error
	if w.topo, w.ph, w.setup, err = setUp(sp, seed, w.virt, traced); err != nil {
		return nil, err
	}
	e := w.topo.e

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, c0 := cpuTime(), w.topo.read()
	for i := 0; i < nSlices; i++ {
		if e.tr != nil {
			// Every other slice is recorded; the ones between pass
			// through the same wrappers unrecorded, and say what
			// recording costs whatever the host is doing meanwhile.
			e.tr.on = i%2 == 0
		}
		wall, ops := e.run(slice)
		w.sliceWall = append(w.sliceWall, wall)
		w.sliceOps = append(w.sliceOps, ops)
		w.wall += wall
		w.ops += ops
	}
	if e.tr != nil {
		e.tr.on = false
	}
	w.cpu = cpuTime() - cpu0
	w.cnt = w.topo.read().sub(c0)
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	w.backlog = e.outstanding

	runtime.GC()
	runtime.ReadMemStats(&m1)
	w.liveHeap = m1.HeapAlloc

	e.drain(drainLimit)
	if w.cnt.overBudget != 0 {
		e.violation("a bounded store peaked %d bytes over its budget", w.cnt.overBudget)
	}
	if len(w.ph.lat) != w.ph.arrivals {
		e.violation("%d arrivals sampled, %d called back", w.ph.arrivals, len(w.ph.lat))
	}
	return w, nil
}

// usPerOp is each slice's wall time per op, in microseconds, sorted.
// The smallest is the window's wall_us_per_op: other tenants of the host
// slow a process down by up to half for seconds at a time, CPU time
// included, so the quietest slice repeats from run to run where the
// median does not (README, "End-to-end metrics").
func (w *window) usPerOp() []float64 {
	var v []float64
	for i, wall := range w.sliceWall {
		if w.sliceOps[i] > 0 {
			v = append(v, us(wall.Nanoseconds())/float64(w.sliceOps[i]))
		}
	}
	slices.Sort(v)
	return v
}

// step is one rung of the rate ladder.
type step struct {
	rate      float64 // arrivals per second offered
	arrivals  int
	inTime    int
	p99       sim.Time
	opsPerSec float64 // completed inside the step
	failed    uint64
	ok        bool
}

// climb runs the workload's rate ladder on an already measured topology,
// each rung for warm + length of virtual time, and returns the rungs
// tried; the last ok rung is the SLO throughput.
func climb(topo *topology, warm, length sim.Time) []step {
	e, sp := topo.e, topo.e.sp
	var steps []step
	for _, rate := range sp.ladder {
		failedBefore := e.failed
		ph := e.begin(rate, warm, length)
		e.k.RunFor(warm + length)
		e.drain(drainLimit)
		s := step{
			rate:      rate,
			arrivals:  ph.arrivals,
			inTime:    ph.inTime,
			p99:       sim.Time(percentile(ph.lat, 99)),
			opsPerSec: float64(ph.opsInTime) / (float64(length) / 1e9),
			failed:    e.failed - failedBefore,
		}
		s.ok = s.failed == 0 && s.p99 <= sp.slo && len(ph.lat) == ph.arrivals &&
			float64(s.inTime) >= ladderMinOK*float64(s.arrivals)
		steps = append(steps, s)
		if !s.ok {
			break
		}
	}
	return steps
}

func sloOps(steps []step) float64 {
	v := 0.0
	for _, s := range steps {
		if s.ok {
			v = s.opsPerSec
		}
	}
	return v
}

// digest folds every virtual result of a run - metrics, counters and
// ladder points - into one number. A change meant only to make the
// simulator cheaper must leave it as it was.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(name string, v any) { fmt.Fprintf(d.h, "%s=%v\n", name, v) }

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digest) addPhase(prefix string, ph *phase) {
	d.add(prefix+".arrivals", ph.arrivals)
	d.add(prefix+".in_time", ph.inTime)
	d.add(prefix+".ops_in_time", ph.opsInTime)
	d.add(prefix+".reads", ph.reads)
	d.add(prefix+".hits", ph.hits)
	d.add(prefix+".failed", ph.failed)
	for _, p := range []float64{50, 99, 99.9, 100} {
		d.add(fmt.Sprintf("%s.p%v", prefix, p), percentile(ph.lat, p))
	}
	d.add(prefix+".delay_p99", percentile(ph.delay, 99))
}

func (d *digest) addWindow(w *window) {
	d.addPhase("window", w.ph)
	d.add("window.ops", w.ops)
	d.add("window.backlog", w.backlog)
	c := w.cnt
	d.add("sim.fired", c.fired)
	d.add("event.dispatched", c.dispatched)
	d.add("machine.frames", c.frames)
	d.add("machine.wire_bytes", c.wireBytes)
	d.add("netstack.retransmits", c.retransmits)
	d.add("netstack.persist", c.persist)
	d.add("memcached.requests", c.requests)
	d.add("memcached.evictions", c.evictions)
	d.add("cluster.hot", []uint64{c.hotHits, c.hotMisses})
	d.add("cluster.batch", []uint64{c.batchOps, c.batchRounds})
}

func (d *digest) addLadder(steps []step) {
	for i, s := range steps {
		d.add(fmt.Sprintf("ladder.%d", i), fmt.Sprint(s.rate, s.arrivals, s.inTime, int64(s.p99), s.opsPerSec, s.failed, s.ok))
	}
}

// median and quartiles of a sample; the quartiles as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is how the spread of this benchmark's runs is judged elsewhere.
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	if len(s) < 2 {
		return median(v), median(v)
	}
	at := func(i int) float64 {
		n := len(s)
		pos := float64(i*(n+1)) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
