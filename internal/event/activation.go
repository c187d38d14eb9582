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

// An activation's coroutine is never stopped, so while the activation sits
// in its Manager's pool the parked goroutine is a root for the collector:
// nothing reachable from a pooled activation may lead back to the Manager,
// or a dropped kernel and everything on it would live forever. own is
// cleared when its event ends for that reason.
type activation struct {
	next  func() (actState, bool) // runs ctx.fn, or continues it, until it ends or blocks
	yield func(actState) bool
	ctx   *Ctx // the running event's: &own, or under iobufdebug one of its own
	own   Ctx
}

func (m *Manager) getActivation() *activation {
	if n := len(m.pool); n > 0 {
		act := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return act
	}
	act := &activation{}
	act.next, _ = iter.Pull(func(yield func(actState) bool) {
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
