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
//
// The queue sorts only what is due soon. A 4-ary heap holds the entries
// due before the horizon, which stays at least two buckets of 65.536 µs
// past now; a later entry is appended, unsorted, to its bucket on a timing
// wheel of 256 buckets (Varghese and Lauck's hashed wheel), or past the
// wheel's 16.8 ms to an overflow list that is refiled once per wheel turn.
// As the horizon reaches a bucket its live entries move into the heap, so
// a timer armed and cancelled before then - TCP re-arms its RTO per
// segment - is dropped there and never sifted. An entry keeps the sequence
// number it was scheduled with wherever it waits, so the order stays
// exactly (time, sequence).
//
// Callbacks run as plain calls on the kernel's loop, which Run, RunUntil and
// Step hand once per call to a runner, a goroutine the kernel keeps
// (loop.go). A callback that must wait without returning parks (Park) and
// the loop goes on without it, on another runner, until a later callback
// resumes it (Resume).
package sim

import (
	"fmt"
	"math"
	"math/bits"
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
	e.k.pending--
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

func (a *entry) dead() bool { return a.ev != nil && a.ev.seq != a.seq }

// The wheel's geometry. A bucket is the entries due in one aligned span of
// 1<<bucketShift ns; bucket b waits in slot b&wheelMask.
const (
	bucketShift = 16 // 65.536 µs
	wheelBits   = 8
	wheelSize   = 1 << wheelBits // 16.8 ms of buckets
	wheelMask   = wheelSize - 1
	// nearBuckets is how many bucket starts past now the horizon is kept:
	// an entry due within one to two buckets is pushed straight onto the
	// heap.
	nearBuckets = 2
)

func bucketOf(t Time) int64 { return int64(t) >> bucketShift }

// Kernel is a single-threaded discrete-event executor. Events scheduled for
// the same instant fire in scheduling order (FIFO), making every simulation
// deterministic. Kernel is not safe for concurrent use: its callbacks run one
// at a time, each on the runner that holds the loop, and one that parks
// (loop.go) keeps its runner and waits without holding the loop.
type Kernel struct {
	now Time
	seq uint64
	// heap is a 4-ary min-heap ordered by entry.before, holding every entry
	// due before bucket horizon: half the levels of a binary heap, and a
	// node's four children share a cache line or two.
	heap []entry
	// vacant is set while the callback of heap[0] runs: the slot is free,
	// and the first entry pushed takes it with one siftDown.
	vacant bool
	// horizon is the first bucket not yet moved into the heap. The wheel
	// holds buckets horizon to horizon+wheelMask; overflow holds entries
	// due from the next turn of the wheel (the next multiple of wheelSize
	// above horizon) on, in no order.
	horizon  int64
	wheel    [wheelSize][]entry
	occupied [wheelSize / 64]uint64 // a bit per slot whose bucket is not empty
	overflow []entry
	// pending counts queued entries that are live (not cancelled or re-armed).
	pending int
	// fired counts events executed; useful for debugging runaway loops.
	fired uint64
	// turns counts the horizon's moves, so tests can bound them.
	turns uint64
	// loop runs the callbacks (loop.go); the first run makes it.
	loop *loop
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{horizon: nearBuckets} }

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

func (k *Kernel) schedule(t Time, fn func(), ev *Event) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.file(entry{at: t, seq: k.seq, fn: fn, ev: ev})
	k.seq++
	k.pending++
}

// file queues en where its bucket says: the heap, the wheel or overflow.
func (k *Kernel) file(en entry) {
	switch b := bucketOf(en.at); {
	case b < k.horizon:
		k.push(en)
	case b < k.horizon+wheelSize:
		slot := uint(b) & wheelMask
		k.wheel[slot] = append(k.wheel[slot], en)
		k.occupied[slot/64] |= 1 << (slot % 64)
	default:
		k.overflow = append(k.overflow, en)
	}
}

// push adds en to the heap: into the vacant root, or sifted up from the
// bottom.
func (k *Kernel) push(en entry) {
	if k.vacant {
		k.vacant = false
		k.siftDown(0, en)
		return
	}
	q := append(k.heap, en)
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
	k.heap = q
}

// dropRoot removes the root, sifting the last entry down from it.
func (k *Kernel) dropRoot() {
	q := k.heap
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the callback reference
	k.heap = q[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
}

// siftDown places en at hole i or below it, moving smaller children up.
func (k *Kernel) siftDown(i int, en entry) {
	q := k.heap
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

// raise moves the horizon up to bucket to.
func (k *Kernel) raise(to int64) {
	for k.horizon < to {
		k.step(to)
	}
}

// step moves the horizon toward bucket to, by as far as nothing queued
// lies in between: past the next bucket that holds entries, whose live
// ones move into the heap; or to the start of the wheel's next turn, where
// overflow entries may be due; or, with the wheel empty, straight to the
// bucket of the earliest overflow entry. Entering a new turn refiles
// overflow, dropping its dead entries.
func (k *Kernel) step(to int64) {
	k.turns++
	h := k.horizon
	next := min(to, (h>>wheelBits+1)<<wheelBits)
	if b, ok := k.nextOccupied(); ok {
		if b < next {
			k.moveBucket(b)
			next = b + 1
		}
	} else if next < to {
		next = to
		for i := range k.overflow {
			next = min(next, bucketOf(k.overflow[i].at))
		}
	}
	k.horizon = next
	if next>>wheelBits != h>>wheelBits {
		far := k.overflow
		k.overflow = far[:0] // file appends behind the loop's reads
		for _, en := range far {
			if !en.dead() {
				k.file(en)
			}
		}
		clear(far[len(k.overflow):])
	}
}

// nextOccupied returns the earliest bucket on the wheel that holds entries.
func (k *Kernel) nextOccupied() (int64, bool) {
	s := uint(k.horizon) & wheelMask
	words := uint(len(k.occupied))
	for i := uint(0); i <= words; i++ { // the first word twice: from s, then below it
		w := (s/64 + i) % words
		set := k.occupied[w]
		switch i {
		case 0:
			set &= ^uint64(0) << (s % 64)
		case words:
			set &= 1<<(s%64) - 1
		}
		if set != 0 {
			slot := w*64 + uint(bits.TrailingZeros64(set))
			return k.horizon + int64((slot-s)&wheelMask), true
		}
	}
	return 0, false
}

// moveBucket pushes bucket b's live entries onto the heap and empties its
// slot, keeping the slot's array.
func (k *Kernel) moveBucket(b int64) {
	slot := uint(b) & wheelMask
	q := k.wheel[slot]
	for i := range q {
		if !q[i].dead() {
			k.push(q[i])
		}
	}
	clear(q)
	k.wheel[slot] = q[:0]
	k.occupied[slot/64] &^= 1 << (slot % 64)
}

// fireNext executes the earliest pending event if it is due at or before
// limit, advancing virtual time to its timestamp, and reports whether it
// did. Dead entries reaching the head are discarded on the way. The fired
// entry keeps the root while its callback runs, for the first entry the
// callback pushes to take.
func (k *Kernel) fireNext(limit Time) bool {
	if k.vacant { // a callback steps the kernel itself, or panicked
		k.vacant = false
		k.dropRoot()
	}
	for {
		if len(k.heap) == 0 {
			if k.pending == 0 || bucketOf(limit) < k.horizon {
				return false
			}
			k.step(bucketOf(limit) + 1)
			continue
		}
		head := &k.heap[0]
		if head.dead() {
			k.dropRoot()
			continue
		}
		if head.at > limit {
			return false
		}
		en := *head
		if en.ev != nil {
			en.ev.seq = unarmed
		}
		k.pending--
		k.now = en.at
		k.fired++
		k.vacant = true
		if to := bucketOf(en.at) + nearBuckets; to > k.horizon {
			k.raise(to)
		}
		en.fn()
		if k.vacant {
			k.vacant = false
			k.dropRoot()
		}
		return true
	}
}
