// Package load drives the evaluation's servers the way the paper does:
// open-loop generators whose requests arrive by a Poisson process at a
// target rate regardless of completions, so server queueing shows up as
// latency - the methodology behind the latency-vs-throughput curves of
// §4.2 (mutilate, Facebook ETC) and the webserver table of §4.3 (wrk).
//
// One engine (engine.go) owns the methodology: the arrival process, the
// measurement window, the latency recorder, the per-key counts and the
// result header every run reports (Summary). Three adapters turn its
// arrivals into requests:
//
//   - RunMutilate, RunMutilateSharded and RunMutilateText send the ETC
//     workload to memcached servers over pools of pipelined connections
//     (conn.go), in the binary or the ASCII text protocol;
//   - RunClusterLoad and RunClusterLoadMulti hand each arrival to a
//     replicated client Ebb (KVClient) and keep a completion timeline
//     that failure experiments read;
//   - RunWrk sends the webserver's request over the same connection
//     type, one at a time, closed-loop as wrk runs unless given a rate.
package load

import (
	"fmt"

	"ebbrt/internal/sim"
)

// drain is how long a run continues past its window's end.
const drain = 20 * sim.Millisecond

// Summary is the header of every generator's result.
type Summary struct {
	// TargetRPS is the offered arrival rate (0 for a closed loop).
	TargetRPS float64
	// AchievedRPS is the scored completions per second of window.
	AchievedRPS float64
	Mean        sim.Time
	P99         sim.Time
	// Samples counts the scored completions.
	Samples int
}

// engine is one measured run: the window [start, end], the latency of
// every operation that arrived in it and completed by its end, and the
// keys its arrivals drew.
type engine struct {
	k          *sim.Kernel
	target     float64
	start, end sim.Time
	// closed makes every completion before the window's end submit the
	// next request (wrk's loop) instead of waiting for an arrival.
	closed bool
	rec    *sim.Recorder
	keys   *keyCounter
}

func newEngine(k *sim.Kernel, target float64, start, duration sim.Time, keySpace int) *engine {
	return &engine{
		k:      k,
		target: target,
		start:  start,
		end:    start + duration,
		rec:    sim.NewRecorder(int(target * float64(duration) / 1e9)),
		keys:   newKeyCounter(keySpace),
	}
}

// arrivals runs one Poisson source of rate arrivals per second: each gap
// is drawn from rng, and every arrival before the window's end goes to
// submit at its arrival time, before the next gap is drawn.
func (e *engine) arrivals(rng *sim.Rng, rate float64, submit func(at sim.Time)) {
	e.k.Post(sim.Time(rng.Exp(1e9/rate)), func() {
		if at := e.k.Now(); at < e.end {
			submit(at)
			e.arrivals(rng, rate, submit)
		}
	})
}

// note counts an arrival's key if it arrived inside the window.
func (e *engine) note(at sim.Time, key int) {
	if at >= e.start {
		e.keys.note(key)
	}
}

// measured reports whether an operation that arrived at at and completed
// at now is scored: it arrived no earlier than the window's start and
// completed no later than its end.
func (e *engine) measured(at, now sim.Time) bool { return at >= e.start && now <= e.end }

// done scores one completion and reports whether it was measured. In a
// closed loop a completion before the window's end also hands again the
// next request, arriving now: exactly one per completion.
func (e *engine) done(at, now sim.Time, again func(at sim.Time)) bool {
	ok := e.measured(at, now)
	if ok {
		e.rec.Add(now - at)
	}
	if e.closed && now < e.end {
		again(now)
	}
	return ok
}

// run executes the window and the drain after it.
func (e *engine) run() { e.k.RunUntil(e.end + drain) }

// String renders the run like the paper's axes.
func (s Summary) String() string {
	return fmt.Sprintf("target=%.0f achieved=%.0f mean=%.1fus p99=%.1fus n=%d",
		s.TargetRPS, s.AchievedRPS, s.Mean.Micros(), s.P99.Micros(), s.Samples)
}

func (e *engine) summary() Summary {
	return Summary{
		TargetRPS:   e.target,
		AchievedRPS: float64(e.rec.Count()) / (float64(e.end-e.start) / 1e9),
		Mean:        e.rec.Mean(),
		P99:         e.rec.Percentile(99),
		Samples:     e.rec.Count(),
	}
}
