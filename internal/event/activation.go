package event

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Each executing event runs on an iter.Pull coroutine so it can suspend
// mid-execution (the paper's save/restore of stack and register state). Only
// one side of next()/yield() ever runs: the simulation stays deterministic.

type actState int

const (
	actDone actState = iota
	actBlocked
)

// While an activation sits in its Manager's pool its parked coroutine is a
// goroutine, a root for the collector: nothing reachable from a pooled
// activation may lead back to the Manager, or a dropped kernel and
// everything on it would live forever. own is cleared when its event ends
// for that reason. The goroutine itself outlives the Manager until the
// cleanup NewManager registers stops it.
type activation struct {
	next  func() (actState, bool) // runs ctx.fn, or continues it, until it ends or blocks
	stop  func()                  // ends the coroutine, parked between events
	yield func(actState) bool
	ctx   *Ctx // the running event's: &own, or under iobufdebug one of its own
	own   Ctx
}

// activationPool holds a Manager's activations between events. It is an
// object of its own so that the cleanup ending their coroutines once the
// Manager is dropped can hold it without holding the Manager.
type activationPool struct{ idle []*activation }

func (p *activationPool) stopAll() {
	for _, act := range p.idle {
		act.stop()
	}
}

func (m *Manager) getActivation() *activation {
	if n := len(m.pool.idle); n > 0 {
		act := m.pool.idle[n-1]
		m.pool.idle = m.pool.idle[:n-1]
		return act
	}
	act := &activation{}
	act.next, act.stop = iter.Pull(func(yield func(actState) bool) {
		act.yield = yield
		for ok := true; ok; ok = yield(actDone) {
			act.call()
		}
	})
	return act
}

// call runs the handler. A panic in it resurfaces from next() in whoever
// drives the kernel, its frames gone by then, so the stack is attached here.
func (a *activation) call() {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("event: handler panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	a.ctx.fn(a.ctx)
}
