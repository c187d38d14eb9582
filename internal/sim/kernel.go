// Package sim provides the deterministic discrete-event simulation substrate
// on which the EbbRT reproduction runs: a virtual-time event kernel, a
// seedable random number generator, and latency statistics.
//
// All macro-experiments in the paper (Figures 4-7, Table 2) execute on this
// kernel so that results are exactly reproducible run-to-run. Virtual time
// is measured in nanoseconds and stored as an int64, which covers simulations
// of roughly 292 years - far beyond anything the harnesses schedule.
//
// Three calls schedule work. Post/PostAt are the default: fire and forget,
// nothing to hold, and nothing allocated per event - the callback lives in
// the queue entry itself, and a caller with state to carry binds one func
// to a record it recycles (machine's frame flights). NewEvent makes an
// *Event its owner keeps and re-arms with Reset/ResetAt, each arming
// replacing the last and allocating nothing: the timer that is set per
// packet and usually cancelled (event.Manager.After pools them). At/After
// are NewEvent plus one arming, for a caller that wants a one-shot handle
// to Cancel (tests, bench/). All share one queue and one total order, and
// every arming takes the next sequence number, so a call site may move
// between them without changing when anything fires.
package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual nanoseconds.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time span back to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Micros reports t as fractional microseconds, convenient for experiment
// output that mirrors the paper's latency tables.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String renders the time with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Event is one callback that can be armed, cancelled and armed again, with
// at most one firing pending. It is bound to its callback for life, so a
// handle kept past its firing stays inert until its owner arms it again.
type Event struct {
	k  *Kernel
	fn func()
	// seq is the sequence number of the queue entry that will fire the
	// event, unarmed when none will. Cancelling or re-arming leaves the old
	// entry queued; it is dead because its seq no longer matches.
	seq uint64
}

const unarmed = math.MaxUint64

// NewEvent returns an unarmed event that runs fn each time it fires.
func (k *Kernel) NewEvent(fn func()) *Event { return &Event{k: k, fn: fn, seq: unarmed} }

// ResetAt arms the event to fire at virtual time t, in place of any firing
// still pending. Like PostAt it panics on a time in the past.
func (e *Event) ResetAt(t Time) {
	e.Cancel()
	e.seq = e.k.seq
	e.k.schedule(t, e.fn, e)
}

// Reset is ResetAt d from now. Negative delays are clamped to zero.
func (e *Event) Reset(d Time) { e.ResetAt(e.k.now + max(d, 0)) }

// Cancel prevents the pending firing, if there is one, and reports whether
// there was.
func (e *Event) Cancel() bool {
	if e.seq == unarmed {
		return false
	}
	e.seq = unarmed
	k := e.k
	k.pending--
	if dead := len(k.queue) - k.pending; dead > k.pending && dead > 32 {
		k.sweep()
	}
	return true
}

// entry is one scheduled callback in the queue. ev is nil for Post/PostAt,
// which have nothing that could be cancelled; otherwise the entry is live
// only while ev.seq == seq.
type entry struct {
	at  Time
	seq uint64
	fn  func()
	ev  *Event
}

// before is the queue's total order: (time, scheduling sequence).
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Kernel is a single-threaded discrete-event executor. Events scheduled for
// the same instant fire in scheduling order (FIFO), making every simulation
// deterministic. Kernel is not safe for concurrent use; the event package
// layers deterministic coroutine blocking on top of it.
type Kernel struct {
	now Time
	seq uint64
	// queue is a 4-ary min-heap ordered by entry.before: half the levels of
	// a binary heap, and a node's four children share a cache line or two.
	queue []entry
	// pending counts queued entries that are live (not cancelled or re-armed).
	pending int
	// fired counts events executed; useful for debugging runaway loops.
	fired uint64
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events that are scheduled and not cancelled.
func (k *Kernel) Pending() int { return k.pending }

// Fired reports how many events have executed since the kernel was created.
func (k *Kernel) Fired() uint64 { return k.fired }

// PostAt schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
func (k *Kernel) PostAt(t Time, fn func()) { k.schedule(t, fn, nil) }

// Post schedules fn to run d nanoseconds of virtual time from now.
// Negative delays are clamped to zero.
func (k *Kernel) Post(d Time, fn func()) { k.schedule(k.now+max(d, 0), fn, nil) }

// At is PostAt returning a one-shot handle: a new Event, armed once.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := &Event{k: k, fn: fn, seq: k.seq}
	k.schedule(t, fn, e)
	return e
}

// After is Post returning a one-shot handle: a new Event armed once.
func (k *Kernel) After(d Time, fn func()) *Event { return k.At(k.now+max(d, 0), fn) }

// schedule sifts a new entry up from the bottom of the heap.
func (k *Kernel) schedule(t Time, fn func(), ev *Event) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	en := entry{at: t, seq: k.seq, fn: fn, ev: ev}
	k.seq++
	k.pending++
	q := append(k.queue, en)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !en.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = en
	k.queue = q
}

// pop removes the earliest entry, sifting the last one down from the root.
func (k *Kernel) pop() entry {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the callback reference
	k.queue = q[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
	return top
}

// siftDown places en at hole i or below it, moving smaller children up.
func (k *Kernel) siftDown(i int, en entry) {
	q := k.queue
	for {
		child := 4*i + 1
		if child >= len(q) {
			break
		}
		least, end := child, min(child+4, len(q))
		for c := child + 1; c < end; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&en) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = en
}

// sweep discards every dead entry and rebuilds the heap. Cancel calls it
// once dead entries outnumber live ones: a timer that is re-armed per
// packet (TCP's RTO) would otherwise leave the queue holding a timeout's
// worth of dead entries for every live one to sift through. The order is
// total, so the rebuilt heap pops in the same sequence.
func (k *Kernel) sweep() {
	k.queue = slices.DeleteFunc(k.queue, func(en entry) bool { return en.ev != nil && en.ev.seq != en.seq })
	for i := (len(k.queue)+2)/4 - 1; i >= 0; i-- { // from the last node that has a child
		k.siftDown(i, k.queue[i])
	}
}

// fireNext executes the earliest pending event if it is due at or before
// limit, advancing virtual time to its timestamp, and reports whether it
// did. Dead entries reaching the head are discarded on the way.
func (k *Kernel) fireNext(limit Time) bool {
	for len(k.queue) > 0 {
		head := &k.queue[0]
		if head.ev != nil && head.ev.seq != head.seq {
			k.pop()
			continue
		}
		if head.at > limit {
			return false
		}
		en := k.pop()
		if en.ev != nil {
			en.ev.seq = unarmed
		}
		k.pending--
		k.now = en.at
		k.fired++
		en.fn()
		return true
	}
	return false
}

// Step executes the earliest pending event, advancing virtual time to its
// timestamp. It reports false when no events remain.
func (k *Kernel) Step() bool { return k.fireNext(math.MaxInt64) }

// Run executes events until none remain.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if the queue drained earlier).
func (k *Kernel) RunUntil(t Time) {
	for k.fireNext(t) {
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for d nanoseconds of virtual time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }
