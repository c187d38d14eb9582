package load

import (
	"testing"

	"ebbrt/internal/sim"
)

// TestEngineWindow holds the one window rule every generator scores by:
// an operation counts if it arrived at or after the window's start and
// completed at or before its end - including the cluster timeline, whose
// last bucket is closed on the right.
func TestEngineWindow(t *testing.T) {
	k := sim.NewKernel()
	e := newEngine(k, 1e5, 10*sim.Microsecond, 100*sim.Microsecond, 0)
	for _, tc := range []struct {
		name    string
		at, now sim.Time
		want    bool
	}{
		{"arrived before the start", e.start - 1, e.start + 5, false},
		{"arrived at the start", e.start, e.start + 5, true},
		{"completed at the end", e.end - 5, e.end, true},
		{"completed after the end", e.end - 5, e.end + 1, false},
	} {
		if got := e.done(tc.at, tc.now, nil); got != tc.want {
			t.Errorf("%s: scored %v, want %v", tc.name, got, tc.want)
		}
	}
	if e.rec.Count() != 2 {
		t.Errorf("recorded %d samples, want 2", e.rec.Count())
	}

	// Duration is a whole number of buckets, so the completion at the
	// end falls on the last bucket's right edge.
	l := &clusterLoad{e: e, bucket: 10 * sim.Microsecond, timeline: make([]LoadBucket, 10)}
	l.record(e.end-5, e.end, true, OpOutcome{OK: true})
	l.record(e.end-5, e.end+1, true, OpOutcome{OK: true})
	if b := l.timeline[9]; b.Completed != 1 || b.Hits != 1 {
		t.Errorf("last bucket %+v, want the one completion at the end", b)
	}
}

// TestEngineArrivals: every gap comes from the source's RNG in order and
// nothing arrives at or after the window's end.
func TestEngineArrivals(t *testing.T) {
	const rate, seed = 2e5, 3
	k := sim.NewKernel()
	e := newEngine(k, rate, 50*sim.Microsecond, 500*sim.Microsecond, 0)
	var got []sim.Time
	e.arrivals(sim.NewRng(seed), rate, func(at sim.Time) { got = append(got, at) })
	e.run()

	var want []sim.Time
	rng := sim.NewRng(seed)
	for at := sim.Time(rng.Exp(1e9 / rate)); at < e.end; at += sim.Time(rng.Exp(1e9 / rate)) {
		want = append(want, at)
	}
	if len(got) != len(want) || len(got) < 50 {
		t.Fatalf("%d arrivals, want %d (and a few dozen at least)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEngineClosedLoop: in a closed loop each completion before the
// window's end submits exactly one request, and none after it does.
func TestEngineClosedLoop(t *testing.T) {
	const loops, latency = 3, 7 * sim.Microsecond
	k := sim.NewKernel()
	e := newEngine(k, 0, 10*sim.Microsecond, 100*sim.Microsecond, 0)
	e.closed = true
	submits, early, late := 0, 0, 0
	var submit func(at sim.Time)
	submit = func(at sim.Time) {
		if at >= e.end {
			t.Errorf("submitted at %v, after the window's end %v", at, e.end)
		}
		submits++
		k.Post(latency, func() {
			if k.Now() < e.end {
				early++
			} else {
				late++
			}
			e.done(at, k.Now(), submit)
		})
	}
	for i := 0; i < loops; i++ {
		submit(k.Now())
	}
	e.run()
	if submits != loops+early {
		t.Errorf("%d submissions for %d loops and %d completions before the end", submits, loops, early)
	}
	if late != loops {
		t.Errorf("%d completions after the end, want one per loop", late)
	}
	if e.rec.Count() == 0 {
		t.Error("the closed loop scored nothing")
	}
}
