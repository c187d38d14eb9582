package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"runtime/debug"
)

// The loop is what fires callbacks. One goroutine at a time holds it and
// runs callbacks as plain calls, so a callback that returns costs no
// switch. Run, RunUntil and Step switch into the kernel's loop coroutine
// (an iter.Pull coroutine, its goroutine called home here) once per call,
// and it switches back when the run ends. A callback that must wait
// without returning - the paper's saved event context - calls Park: it
// keeps its stack and the loop goes on in a spare goroutine. A later
// callback's Resume hands the loop back to it once that callback returns;
// the parked one finishes and runs the loop from there, and the goroutine
// it took the loop from becomes a spare. Whoever holds the loop when the
// run ends gets home to switch back to the caller. Nothing the loop does
// between callbacks schedules anything, so where callbacks run never moves
// the order of events.
//
// Between runs home and the spares hold no reference to the Kernel (a
// parked callback does, as any pending work does): a dropped Kernel is
// collected, and a cleanup ends them.

// Parker holds one parked callback. The zero Parker is ready to use.
type Parker struct{ r *runner }

// runner is a goroutine that can hold the loop: home or a spare.
type runner struct{ ch chan signal }

// A signal tells a runner what it holds next. Each one is sent to a runner
// that waits for it, and carries the loop with it but for sigStop.
type signal struct {
	kind int
	k    *Kernel // with sigRun, the kernel whose loop a spare runs
}

const (
	sigRun    = iota // run the loop
	sigResume        // return from Park
	sigYield         // home only: the run has ended, switch back to the caller
	sigStop          // a spare: the kernel was dropped, end
)

// loop is the kernel's loop coroutine, its spares and the current run.
type loop struct {
	k     *Kernel // during a run only
	limit Time
	// stopAt is the value of Kernel.fired at which the run ends: the one
	// event a Step fires counts when it starts, even if it parks.
	stopAt uint64
	nested int // inline runs a callback has started

	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	home     *runner
	homeIdle bool // home waits in handOff for the loop to come back
	spares   []*runner
	cur      *runner // holds the loop
	resumed  *Parker // takes the loop once the running callback returns

	// What a run ended with on another goroutine than the caller's, for
	// the caller to raise.
	panicked any
	goexit   bool
}

// run fires the events due by limit until fired reaches stopAt: on the
// loop coroutine, or inline when a callback runs its own kernel. A panic or
// runtime.Goexit in a callback, wherever it ran, ends the run and reaches
// the caller.
func (k *Kernel) run(limit Time, stopAt uint64) {
	l := k.loop
	if l == nil {
		l = &loop{}
		k.loop = l
		runtime.AddCleanup(k, (*loop).end, l)
	}
	if l.k != nil {
		l.nested++
		for k.fired < stopAt && k.fireNext(limit) {
		}
		l.nested--
		return
	}
	if l.next == nil {
		l.home = &runner{ch: make(chan signal, 1)}
		l.next, l.stop = iter.Pull(l.body)
	}
	l.k, l.limit, l.stopAt, l.nested = k, limit, stopAt, 0
	l.next()
	l.k = nil
	if l.goexit {
		l.goexit = false
		runtime.Goexit()
	}
	if p := l.panicked; p != nil {
		l.panicked = nil
		panic(p)
	}
}

// body is home's goroutine: one drive per run.
func (l *loop) body(yield func(struct{}) bool) {
	l.yield = yield
	for {
		l.k.drive(l.home)
		if !yield(struct{}{}) {
			return
		}
	}
}

// drive runs the loop on r, which holds it, until the run ends or r hands
// the loop to a parked callback and has nothing left to do.
func (k *Kernel) drive(r *runner) {
	l := k.loop
	l.cur = r
	ok := false
	defer func() {
		if !ok {
			l.abort(r, recover())
		}
	}()
	for {
		if p := l.resumed; p != nil {
			l.resumed = nil
			if !l.handOff(r, p) {
				ok = true
				return
			}
			continue
		}
		if k.fired >= l.stopAt || !k.fireNext(l.limit) {
			break
		}
	}
	ok = true
	l.ended(r)
}

// ended is r reaching the end of the run: home switches back to the caller
// as drive returns; a spare gets home to, and waits.
func (l *loop) ended(r *runner) {
	if r != l.home {
		l.spares = append(l.spares, r)
		l.home.ch <- signal{kind: sigYield}
	}
}

// abort handles a callback on r that panicked (v is the value) or called
// runtime.Goexit (v is nil). A panic is recovered with the callback's
// stack attached and ends the run; Goexit ends r's goroutine.
func (l *loop) abort(r *runner, v any) {
	if v != nil {
		l.panicked = fmt.Sprintf("sim: callback panicked: %v\n%s", v, debug.Stack())
		l.ended(r)
		return
	}
	if r == l.home {
		// iter.Pull carries the Goexit to the caller; the next run starts
		// a new coroutine.
		l.k, l.next, l.stop, l.home = nil, nil, nil, nil
		return
	}
	l.goexit = true
	l.home.ch <- signal{kind: sigYield}
}

// handOff gives the loop to p's parked callback, leaving r idle. It reports
// whether r, being home, got the loop back to run it.
func (l *loop) handOff(r *runner, p *Parker) bool {
	to := p.r
	p.r = nil
	if r != l.home {
		l.spares = append(l.spares, r)
		to.ch <- signal{kind: sigResume}
		return false
	}
	l.homeIdle = true
	to.ch <- signal{kind: sigResume}
	s := <-r.ch
	l.homeIdle = false
	if s.kind == sigRun {
		l.cur = r
		return true
	}
	return false // sigYield: the run ended elsewhere
}

// giveLoop hands the loop to an idle runner: home if it waits, else a
// spare, made if there is none.
func (l *loop) giveLoop(k *Kernel) {
	var r *runner
	switch n := len(l.spares); {
	case l.homeIdle:
		r = l.home
	case n > 0:
		r = l.spares[n-1]
		l.spares[n-1] = nil
		l.spares = l.spares[:n-1]
	default:
		r = &runner{ch: make(chan signal, 1)}
		go r.serve()
	}
	r.ch <- signal{kind: sigRun, k: k}
}

// serve is a spare's goroutine. It keeps nothing of a kernel between the
// signals it gets.
func (r *runner) serve() {
	for {
		s := <-r.ch
		if s.kind == sigStop {
			return
		}
		s.k.drive(r)
	}
}

// end stops home and the spares of a kernel that has been collected.
func (l *loop) end() {
	if l.stop != nil {
		l.stop()
	}
	for _, r := range l.spares {
		r.ch <- signal{kind: sigStop}
	}
}

func (l *loop) mustBeOutermost(what string) {
	if l == nil || l.k == nil || l.nested > 0 {
		panic("sim: " + what + " outside a callback of Run, RunUntil or Step, or inside one they run inline")
	}
}

// Park keeps the running callback waiting, on its own stack, until a later
// callback calls Resume with p; meanwhile the loop goes on without it, in
// the same run and the ones after. The parked callback goes on where it
// left off, with the kernel's clock at the time of the resuming callback.
// Park must be called from a callback of an outermost run.
func (k *Kernel) Park(p *Parker) {
	l := k.loop
	l.mustBeOutermost("Park")
	if p.r != nil {
		panic("sim: Park on a Parker that holds a parked callback")
	}
	r := l.cur
	p.r = r
	l.giveLoop(k)
	for {
		switch s := <-r.ch; s.kind {
		case sigResume:
			l.cur = r
			return
		case sigYield: // r is home: the run ended on another runner
			if !l.yield(struct{}{}) {
				panic("sim: a loop with a parked callback was stopped")
			}
			l.giveLoop(k) // the next run goes on without r
		}
	}
}

// Resume hands the loop to the callback parked on p as soon as the calling
// callback returns, before anything else fires or the run can end. A
// callback resumes at most one parked callback; Resume, like Park, must be
// called from a callback of an outermost run.
func (k *Kernel) Resume(p *Parker) {
	l := k.loop
	l.mustBeOutermost("Resume")
	switch {
	case p.r == nil:
		panic("sim: Resume on a Parker that holds no parked callback")
	case l.resumed != nil:
		panic("sim: a callback resumed two parked callbacks")
	}
	l.resumed = p
}

// Step executes the earliest pending event, advancing virtual time to its
// timestamp. It reports false when no events remain. An event that parks
// counts as the step.
func (k *Kernel) Step() bool {
	fired := k.fired
	k.run(math.MaxInt64, fired+1)
	return k.fired != fired
}

// Run executes events until none remain.
func (k *Kernel) Run() { k.run(math.MaxInt64, math.MaxUint64) }

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if the queue drained earlier).
func (k *Kernel) RunUntil(t Time) {
	k.run(t, math.MaxUint64)
	if k.now < t {
		k.now = t
		k.raise(bucketOf(t) + nearBuckets)
	}
}

// RunFor executes events for d nanoseconds of virtual time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }
