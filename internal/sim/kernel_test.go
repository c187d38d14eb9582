package sim

import (
	"math"
	"slices"
	"sort"
	"strings"
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
// arming - with Fired and Pending exact throughout. Some seeds space their
// instants by microseconds or milliseconds, so entries wait on the wheel
// and the overflow list as well as in the heap.
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
		cancelWeight := int(seed % 5)      // from all no-handle to mostly scheduled-then-cancelled
		scale := Time(1) << (seed % 4 * 7) // 1 ns, 128 ns, 16 µs or 2 ms per step of delay
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
		for op := 0; op < 2000; op++ {
			id := len(all)
			fn := func() { got = append(got, id) }
			d := Time(rng.Intn(50)) * Time(1+cancelWeight*8) * scale // few distinct instants, so ties are common
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
			case c == 5 && len(owners) > 0:
				o := owners[rng.Intn(len(owners))]
				live := o.cur != nil && !o.cur.fired && !o.cur.canceled
				if o.ev.Cancel() != live {
					t.Fatalf("seed %d op %d: Cancel of an owned event = %v, want %v", seed, op, !live, live)
				}
				if live {
					o.cur.canceled = true
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

// The slot an entry keeps while its callback runs is given up when the
// callback steps the kernel itself, or panics: the entry fires once.
func TestFiringSlotSurvivesNestedStepAndPanic(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Post(1, func() {
		got = append(got, "outer")
		k.Step()
	})
	k.Post(2, func() { got = append(got, "nested") })
	k.Post(3, func() {
		got = append(got, "panics")
		panic("boom")
	})
	k.Post(4, func() { got = append(got, "after") })
	func() {
		defer func() { recover() }()
		k.Run()
	}()
	k.Run()
	if want := "outer nested panics after"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
}

// Timers armed far ahead and cancelled before they are due never reach the
// heap: a 1 µs ticker re-arms an RTO-like event 1 ms out and arms and
// cancels a 10 ms and a 1 s timeout on every tick. The dead entries are
// dropped from the wheel and the overflow list as the horizon passes them,
// so the heap holds the ticker alone and only the timer left armed fires.
func TestFarCancelledTimersStayOutOfTheHeap(t *testing.T) {
	k := NewKernel()
	const ticks = 10000
	rto := k.NewEvent(func() {})
	rtoFired := 0
	last := k.NewEvent(func() { rtoFired++ })
	n := 0
	var tick func()
	tick = func() {
		if n++; n < ticks {
			k.Post(Microsecond, tick)
		}
		rto.Reset(Millisecond)
		k.After(10*Millisecond, func() { t.Fatal("a cancelled 10 ms timeout fired") }).Cancel()
		k.After(Second, func() { t.Fatal("a cancelled 1 s timeout fired") }).Cancel()
		if len(k.heap) > 1 {
			t.Fatalf("tick %d: %d entries in the heap, want the ticker alone", n, len(k.heap))
		}
	}
	k.Post(0, tick)
	k.RunUntil(ticks * Microsecond)
	rto.Cancel()
	last.Reset(Millisecond)
	k.RunUntil(2 * Second)
	if n != ticks || rtoFired != 1 || k.Pending() != 0 {
		t.Fatalf("%d ticks, %d timers fired, %d pending; want %d, 1 and 0", n, rtoFired, k.Pending(), ticks)
	}
	queued := len(k.heap) + len(k.overflow)
	for _, b := range k.wheel {
		queued += len(b)
	}
	if queued != 0 {
		t.Fatalf("%d dead entries still queued after the horizon passed them all", queued)
	}
}

// Entries due on either side of every boundary the queue has - the horizon,
// a bucket edge, the end of the wheel's turn, the overflow list's refiling
// - fire in (time, sequence) order, whichever structure each waited in.
func TestBoundaryEntriesFireInOrder(t *testing.T) {
	const bucket, turn = Time(1) << bucketShift, Time(1) << (bucketShift + wheelBits)
	k := NewKernel()
	k.RunUntil(3*bucket + 17) // now and the horizon off any alignment
	horizon := Time(k.horizon) << bucketShift
	var ats []Time
	for _, edge := range []Time{horizon, horizon + bucket, 7 * bucket, turn, 2 * turn, 2*turn + bucket, 5 * turn} {
		ats = append(ats, edge-1, edge, edge, edge+1)
	}
	ats = append(ats, k.Now(), k.Now()) // due now, straight onto the heap
	rng := NewRng(7)
	for i := len(ats) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ats[i], ats[j] = ats[j], ats[i]
	}
	var got []int
	for i, at := range ats {
		k.PostAt(at, func() {
			if k.Now() != at {
				t.Errorf("entry %d fired at %v, want %v", i, k.Now(), at)
			}
			got = append(got, i)
		})
	}
	onWheel := 0
	for _, b := range k.wheel {
		onWheel += len(b)
	}
	if len(k.heap) == 0 || onWheel == 0 || len(k.overflow) == 0 {
		t.Fatalf("heap %d, wheel %d, overflow %d: the entries do not reach every structure", len(k.heap), onWheel, len(k.overflow))
	}
	k.Run()
	want := make([]int, len(ats))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return ats[want[a]] < ats[want[b]] })
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v\nwant  %v", got, want)
	}
}

// Running across a long idle gap moves the horizon straight to the next
// bucket that holds entries, and then to the end of the run, instead of
// walking the empty buckets (seconds of them) or the empty turns between.
func TestIdleGapJumpsToTheNextDueBucket(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{3 * Second, 3*Second + 5, 9 * Second} {
		k.PostAt(at, func() { fired = append(fired, k.Now()) })
	}
	before := k.turns
	k.RunUntil(20 * Second)
	if !slices.Equal(fired, []Time{3 * Second, 3*Second + 5, 9 * Second}) || k.Now() != 20*Second {
		t.Fatalf("fired at %v, now %v", fired, k.Now())
	}
	if turns := k.turns - before; turns > 16 {
		t.Fatalf("the horizon took %d steps across 20 s with three entries, want at most 16", turns)
	}
}

// FuzzKernelOrder runs a script decoded from the input against the kernel
// and against a reference that keeps every live arming in a list and fires
// the least (time, sequence) first. Delays run from nanoseconds to seconds
// and some land exactly on bucket and turn edges, so entries wait in the
// heap, on the wheel and on the overflow list; some callbacks schedule
// more, so an entry is pushed into the slot of the one firing. Some
// callbacks park and others resume a parked one: the parked callback's
// continuation must run right after the callback that resumed it returns,
// within the same Step or RunUntil slice, and schedules one more entry.
// Firing order, Now and Pending must agree after every operation.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0})
	f.Add([]byte{2, 0x47, 3, 0x9f, 3, 0xbf, 4, 1, 6, 0xff, 5, 0})
	f.Add([]byte{1, 0x41, 1, 0x40, 1, 0x61, 1, 0x60, 0, 0xe5, 6, 0xff, 5, 0, 5, 0})
	f.Add([]byte{8, 0, 9, 2, 16, 5, 5, 0, 17, 7, 6, 0x45, 8, 0x21, 16, 0x22, 6, 0xff, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		type arming struct {
			at  Time
			seq uint64
			id  int
		}
		k := NewKernel()
		var live []arming // the reference: every arming not yet fired or cancelled
		var seq uint64    // the kernel's sequence, mirrored
		var handles []*Event
		var owned [4]*Event
		ownedSeq := [4]uint64{unarmed, unarmed, unarmed, unarmed}
		dropLive := func(s uint64) bool {
			for i, a := range live {
				if a.seq == s {
					live = slices.Delete(live, i, i+1)
					return true
				}
			}
			return false
		}
		// delay decodes one byte: its top three bits pick a scale, the
		// rest a count; scales 2 and 3 give instants at bucket and turn
		// edges, or one ns before them.
		delay := func(b byte) Time {
			v := Time(b & 31)
			now := k.Now()
			switch b >> 5 {
			case 0:
				return v
			case 1:
				return v << 12
			case 2:
				return max(0, (Time(bucketOf(now))+v>>1)<<bucketShift-v&1-now)
			case 3:
				return max(0, (Time(bucketOf(now)>>wheelBits)+v>>1)<<(bucketShift+wheelBits)-v&1-now)
			case 4:
				return v << 20
			case 5:
				return v << 25 // up to a second
			default:
				return v * 997
			}
		}
		type parkedCb struct {
			id int
			p  *Parker
		}
		var parked []parkedCb
		cont := -1 // the parked callback whose continuation is due next
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				if cont != -1 {
					t.Fatalf("arming %d fired before the continuation of %d", id, cont)
				}
				if len(live) == 0 {
					t.Fatalf("arming %d fired with none pending", id)
				}
				least := 0
				for i, a := range live {
					if a.at < live[least].at || (a.at == live[least].at && a.seq < live[least].seq) {
						least = i
					}
				}
				want := live[least]
				if want.id != id || k.Now() != want.at {
					t.Fatalf("arming %d fired at %v, want arming %d at %v", id, k.Now(), want.id, want.at)
				}
				live = slices.Delete(live, least, least+1)
				if id%3 == 0 { // schedule from inside the callback
					d := delay(byte(id * 37))
					live = append(live, arming{k.Now() + d, seq, id + 1<<20})
					seq++
					k.Post(d, fire(id+1<<20))
				}
			}
		}
		parks := func(id int) func() {
			check := fire(id)
			return func() {
				check()
				p := &Parker{}
				parked = append(parked, parkedCb{id, p})
				k.Park(p)
				if cont != id {
					t.Fatalf("arming %d went on after %d was resumed", id, cont)
				}
				cont = -1
				d := delay(byte(id * 53))
				live = append(live, arming{k.Now() + d, seq, id + 2<<20})
				seq++
				k.Post(d, fire(id+2<<20))
			}
		}
		resumes := func(id int) func() {
			check := fire(id)
			return func() {
				check()
				if len(parked) == 0 {
					return
				}
				i := id % len(parked)
				cont = parked[i].id
				k.Resume(parked[i].p)
				parked = slices.Delete(parked, i, i+1)
			}
		}
		// callback picks what an arming made by op does when it fires.
		callback := func(op byte, id int) func() {
			switch op >> 3 & 3 {
			case 1:
				return parks(id)
			case 2:
				return resumes(id)
			}
			return fire(id)
		}
		ownedFire := func(j int) func() {
			return func() {
				ownedSeq[j] = unarmed
				fire(int(-1 - j))()
			}
		}
		for i := 0; i+1 < len(script) && i < 2000; i += 2 {
			op, arg := script[i], script[i+1]
			d := delay(arg)
			id := i
			switch op % 8 {
			case 0:
				live = append(live, arming{k.Now() + d, seq, id})
				seq++
				k.Post(d, callback(op, id))
			case 1:
				live = append(live, arming{k.Now() + d, seq, id})
				seq++
				k.PostAt(k.Now()+d, callback(op, id))
			case 2:
				live = append(live, arming{k.Now() + d, seq, id})
				seq++
				handles = append(handles, k.At(k.Now()+d, fire(id)))
			case 3:
				j := int(op>>3) % len(owned)
				if owned[j] == nil {
					owned[j] = k.NewEvent(ownedFire(j))
				}
				dropLive(ownedSeq[j])
				live = append(live, arming{k.Now() + d, seq, -1 - j})
				ownedSeq[j] = seq
				seq++
				if op&0x80 != 0 {
					owned[j].ResetAt(k.Now() + d)
				} else {
					owned[j].Reset(d)
				}
			case 4:
				if len(handles) == 0 {
					continue
				}
				h := handles[int(arg)%len(handles)]
				wantLive := h.seq != unarmed && dropLive(h.seq)
				if h.Cancel() != wantLive {
					t.Fatalf("op %d: Cancel = %v, want %v", i, !wantLive, wantLive)
				}
			case 5:
				if want := len(live) > 0; k.Step() != want {
					t.Fatalf("op %d: Step = %v, want %v", i, !want, want)
				}
			case 6:
				until := k.Now() + d
				k.RunUntil(until)
				if k.Now() != until {
					t.Fatalf("op %d: RunUntil(%v) left Now at %v", i, until, k.Now())
				}
				for _, a := range live {
					if a.at <= until {
						t.Fatalf("op %d: arming %d due at %v did not fire by %v", i, a.id, a.at, until)
					}
				}
			case 7:
				j := int(op>>3) % len(owned)
				if owned[j] == nil {
					continue
				}
				wantLive := dropLive(ownedSeq[j])
				ownedSeq[j] = unarmed
				if owned[j].Cancel() != wantLive {
					t.Fatalf("op %d: Cancel of owned event %d = %v, want %v", i, j, !wantLive, wantLive)
				}
			}
			if k.Pending() != len(live) || cont != -1 {
				t.Fatalf("op %d: Pending %d, want %d; continuation of %d still due", i, k.Pending(), len(live), cont)
			}
		}
		for len(parked) > 0 { // a parked callback's goroutine would outlive the input
			live = append(live, arming{k.Now(), seq, 1 << 30})
			seq++
			k.Post(0, resumes(1<<30))
			k.Run()
		}
		k.Run()
		if len(live) != 0 || k.Pending() != 0 {
			t.Fatalf("%d armings never fired; Pending %d", len(live), k.Pending())
		}
	})
}
