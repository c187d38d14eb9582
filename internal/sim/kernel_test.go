package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel()
	e := k.At(1, func() {})
	k.Run()
	if e.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.At(10, func() {
		k.After(5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("nested event at %v, want [15]", times)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if k.Now() != 12 {
		t.Fatalf("Now = %v, want 12", k.Now())
	}
	k.RunFor(8)
	if len(fired) != 4 || k.Now() != 20 {
		t.Fatalf("after RunFor: fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k := NewKernel()
	k.At(10, func() { k.At(5, func() {}) })
	k.Run()
}

func TestKernelNegativeAfterClamps(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(10, func() { k.After(-5, func() { fired = true }) })
	k.Run()
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(3*time.Microsecond) != 3*Microsecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Millisecond).Std() != 2*time.Millisecond {
		t.Fatal("Std conversion wrong")
	}
	if (1500 * Nanosecond).Micros() != 1.5 {
		t.Fatal("Micros conversion wrong")
	}
}

// A handle kept past its firing must stay inert however the kernel reuses
// storage afterwards: bench/engine.go cancels its previous arrival event,
// which has usually fired, at the start of every phase.
func TestStaleHandleCancelsNothing(t *testing.T) {
	k := NewKernel()
	stale := k.After(1, func() {})
	k.Run()
	const n = 1000
	fired := 0
	for i := 0; i < n; i++ {
		k.Post(Time(i%7), func() { fired++ })
		if i%3 == 0 {
			k.Step() // queue slots are vacated and refilled while the handle is held
		}
	}
	if stale.Cancel() {
		t.Fatal("Cancel of a fired handle returned true")
	}
	if got := k.Pending() + fired; got != n {
		t.Fatalf("after the stale Cancel %d posted events are fired or pending, want %d", got, n)
	}
	k.Run()
	if fired != n {
		t.Fatalf("%d of %d posted events fired", fired, n)
	}
}

// Property: under random interleavings of At, After, Post, PostAt, Cancel,
// NewEvent, Reset, ResetAt, Step and RunUntil the kernel fires exactly what
// a stable sort on (time, scheduling order) of the live events says it
// should - handle and no-handle events in one FIFO at the same instant, a
// re-armed event once, at its newest time and in the order of its newest
// arming - with Fired and Pending exact throughout, and dead entries never
// piling up in the queue.
func TestKernelMatchesSortedReference(t *testing.T) {
	type ref struct { // one arming
		at              Time
		id              int
		h               *Event
		fired, canceled bool
	}
	type owned struct { // one NewEvent and its latest arming
		ev  *Event
		cur *ref
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRng(seed)
		cancelWeight := int(seed % 5) // from all no-handle to mostly scheduled-then-cancelled
		k := NewKernel()
		var all, handles []*ref
		var owners []*owned
		var got, want []int
		expect := func(limit Time, atMost int) { // what should fire now, in order
			var due []*ref
			for _, r := range all {
				if !r.fired && !r.canceled && r.at <= limit {
					due = append(due, r)
				}
			}
			sort.SliceStable(due, func(i, j int) bool { return due[i].at < due[j].at })
			for _, r := range due[:min(atMost, len(due))] {
				r.fired = true
				want = append(want, r.id)
			}
		}
		checkSwept := func(op int, what string) {
			if dead := len(k.queue) - k.Pending(); dead > k.Pending() && dead > 32 {
				t.Fatalf("seed %d op %d: %s left %d dead entries queued beside %d live", seed, op, what, dead, k.Pending())
			}
		}
		for op := 0; op < 2000; op++ {
			id := len(all)
			fn := func() { got = append(got, id) }
			d := Time(rng.Intn(50)) * Time(1+cancelWeight*8) // few distinct instants, so ties are common
			// Weights: 2 post, 1 step, 1 run, 1 owned event (re-)armed, 1
			// owned event cancelled, cancelWeight handles scheduled, twice
			// that recent handles cancelled.
			switch c := rng.Intn(6 + 3*cancelWeight); {
			case c == 0:
				k.Post(d, fn)
				all = append(all, &ref{at: k.Now() + d, id: id})
			case c == 1:
				k.PostAt(k.Now()+d, fn)
				all = append(all, &ref{at: k.Now() + d, id: id})
			case c == 2:
				expect(math.MaxInt64, 1)
				k.Step()
			case c == 3:
				expect(k.Now()+d/32, len(all))
				k.RunUntil(k.Now() + d/32)
			case c == 4:
				var o *owned
				if i := rng.Intn(8); i < len(owners) {
					o = owners[i]
				} else {
					o = &owned{}
					o.ev = k.NewEvent(func() { got = append(got, o.cur.id) })
					owners = append(owners, o)
				}
				live := o.cur != nil && !o.cur.fired && !o.cur.canceled
				if live {
					o.cur.canceled = true // superseded
				}
				o.cur = &ref{at: k.Now() + d, id: id}
				all = append(all, o.cur)
				if id%2 == 0 {
					o.ev.Reset(d)
				} else {
					o.ev.ResetAt(k.Now() + d)
				}
				if live {
					checkSwept(op, "Reset")
				}
			case c == 5 && len(owners) > 0:
				o := owners[rng.Intn(len(owners))]
				live := o.cur != nil && !o.cur.fired && !o.cur.canceled
				if o.ev.Cancel() != live {
					t.Fatalf("seed %d op %d: Cancel of an owned event = %v, want %v", seed, op, !live, live)
				}
				if live {
					o.cur.canceled = true
					checkSwept(op, "Cancel")
				}
			case c < 6: // c == 5 before any owned event exists
			case c%6 == 0:
				all = append(all, &ref{at: k.Now() + d, id: id, h: k.After(d, fn)})
				handles = append(handles, all[id])
			case c%6 == 1:
				all = append(all, &ref{at: k.Now() + d, id: id, h: k.At(k.Now()+d, fn)})
				handles = append(handles, all[id])
			case len(handles) > 0:
				r := handles[len(handles)-1-rng.Intn(min(len(handles), 48))]
				live := !r.fired && !r.canceled
				if r.h.Cancel() != live {
					t.Fatalf("seed %d op %d: Cancel = %v, want %v", seed, op, !live, live)
				}
				r.canceled = true
				if live {
					checkSwept(op, "Cancel")
				}
			}
			pending := 0
			for _, r := range all {
				if !r.fired && !r.canceled {
					pending++
				}
			}
			if k.Pending() != pending || k.Fired() != uint64(len(want)) {
				t.Fatalf("seed %d op %d: Pending %d Fired %d, want %d and %d",
					seed, op, k.Pending(), k.Fired(), pending, len(want))
			}
		}
		expect(math.MaxInt64, len(all))
		k.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired %v\nwant %v", seed, got, want)
		}
	}
}

// Arming an owned event allocates nothing, however often: the callback
// rides in the queue entry and the Event is the caller's.
func TestResetAllocatesNothing(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent(func() {})
	for i := 0; i < 100; i++ { // grow the queue once
		e.Reset(Time(i))
	}
	k.Run()
	if n := testing.AllocsPerRun(100, func() {
		e.Reset(5)
		e.Reset(3)
		k.Run()
		e.Reset(1)
		e.Cancel()
	}); n != 0 {
		t.Fatalf("Reset/Cancel/fire allocated %.0f objects per run, want 0", n)
	}
}
