package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
)

// The loop is what fires callbacks. One goroutine at a time holds it and
// runs callbacks as plain calls, so a callback that returns costs no
// switch. Every goroutine that holds it is a runner, a goroutine the kernel
// keeps. Run, RunUntil and Step hand the loop to an idle runner, made if
// there is none, and wait for the run to end. A callback that must wait
// without returning - the paper's saved event context - calls Park: it
// keeps its stack on its runner, and another runner takes the loop. A later
// callback's Resume hands the loop back to it once that callback returns;
// the parked one finishes and runs the loop from there, and the runner it
// took the loop from goes idle. Whichever runner holds the loop when the
// run ends tells the caller how it ended. Nothing the loop does between
// callbacks schedules anything, so where callbacks run never moves the
// order of events.
//
// Between runs the idle runners hold no reference to the Kernel (a parked
// callback does, as any pending work does): a dropped Kernel is collected,
// and a cleanup ends them.

// Parker holds one parked callback. The zero Parker is ready to use.
type Parker struct{ r *runner }

// runner is a goroutine that can hold the loop. Each kernel sent on ch is
// the loop, handed to it: to run in serve, or to go on with in Park. A nil
// kernel ends an idle runner.
type runner struct{ ch chan *Kernel }

// goexit is what a run ends with when a callback calls runtime.Goexit.
type goexit struct{}

// loop is the kernel's runners and the current run.
type loop struct {
	k     *Kernel // during a run only
	limit Time
	// stopAt is the value of Kernel.fired at which the run ends: the one
	// event a Step fires counts when it starts, even if it parks.
	stopAt uint64
	nested int // inline runs a callback has started

	idle    []*runner
	cur     *runner // holds the loop
	resumed *Parker // takes the loop once the running callback returns
	// done carries how the run ended to the caller: nil, a callback's panic
	// as text with its stack, or goexit{}.
	done chan any
}

// run fires the events due by limit until fired reaches stopAt: on a
// runner, or inline when a callback runs its own kernel. A panic or
// runtime.Goexit in a callback, wherever it ran, ends the run and reaches
// the caller.
func (k *Kernel) run(limit Time, stopAt uint64) {
	l := k.loop
	if l == nil {
		l = &loop{done: make(chan any)}
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
	l.k, l.limit, l.stopAt, l.nested = k, limit, stopAt, 0
	l.giveLoop(k)
	end := <-l.done
	l.k = nil
	if end == (goexit{}) {
		runtime.Goexit()
	}
	if end != nil {
		panic(end)
	}
}

// drive runs the loop on r, which holds it, until the run ends or r hands
// the loop to a parked callback. Either way r goes idle, unless a callback
// on it called runtime.Goexit, which ends r's goroutine. Once r has passed
// the loop on, to the caller or to a parked callback, it touches nothing of
// the loop: the caller may already be starting the next run.
func (k *Kernel) drive(r *runner) {
	l := k.loop
	l.cur = r
	var to *runner         // the parked callback's runner r hands the loop to
	var end any = goexit{} // what the run ends with, if it ends on r
	defer func() {
		if v := recover(); v != nil {
			end = fmt.Sprintf("sim: callback panicked: %v\n%s", v, debug.Stack())
		}
		if end != (goexit{}) {
			l.idle = append(l.idle, r)
		}
		if to != nil {
			to.ch <- k
		} else {
			l.done <- end
		}
	}()
	for {
		if p := l.resumed; p != nil {
			l.resumed = nil
			to, p.r = p.r, nil
			end = nil
			return
		}
		if k.fired >= l.stopAt || !k.fireNext(l.limit) {
			end = nil
			return
		}
	}
}

// giveLoop hands the loop to an idle runner, made if there is none.
func (l *loop) giveLoop(k *Kernel) {
	var r *runner
	if n := len(l.idle); n > 0 {
		r = l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
	} else {
		r = &runner{ch: make(chan *Kernel, 1)}
		go r.serve()
	}
	r.ch <- k
}

// serve is a runner's goroutine. It keeps nothing of a kernel between the
// runs it drives.
func (r *runner) serve() {
	for k := <-r.ch; k != nil; k = <-r.ch {
		k.drive(r)
	}
}

// end stops the idle runners of a kernel that has been collected.
func (l *loop) end() {
	for _, r := range l.idle {
		r.ch <- nil
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
	<-r.ch
	l.cur = r
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

// Running reports whether a run - Run, RunUntil, Step or one a callback
// runs inline - is in progress, so that the caller is one of its
// callbacks.
func (k *Kernel) Running() bool { return k.loop != nil && k.loop.k != nil }

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
