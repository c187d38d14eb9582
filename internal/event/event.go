// Package event implements EbbRT's non-preemptive event-driven execution
// environment (paper §2.3, §3.2).
//
// One event loop runs per core. A registered handler is invoked with
// interrupts disabled and runs to completion without preemption. When an
// event completes the manager (1) opens a brief interrupt window and
// dispatches the oldest pending hardware interrupt, (2) dispatches one
// synthetic (Spawned) event, (3) invokes all IdleHandlers, and (4) enables
// interrupts and halts - restarting the loop whenever any step invoked a
// handler. This gives hardware interrupts and synthetic events priority
// over repeatedly invoked idle handlers, which is what lets device drivers
// implement adaptive polling.
//
// Handlers account for the virtual CPU time they consume via Ctx.Charge;
// the core is busy for that long before the loop continues. A handler is a
// plain call on the stack of the kernel's loop, as an EbbRT event runs on
// its core's event stack. The paper's save/restore event mechanism (used
// to give blocking semantics on top of events) is the kernel's Park and
// Resume: a handler that calls Ctx.Block keeps its stack and the loop goes
// on in another goroutine, and when the event is reactivated the loop comes
// back to that stack, which finishes the handler and runs the loop from
// there. Only an event that blocks pays for goroutines; one that runs to
// completion costs a call.
//
// Timers (Manager.After) are one-shot and pooled: a timer record owns one
// re-armable sim.Event and goes back to its Manager's free list when its
// handler starts or it is cancelled, so arming allocates nothing once the
// pool holds the most timers ever pending at once. A timer whose time has
// come is latched behind VecTimer until the core gets to it, and can still
// be cancelled there. The Timer handle is a value - the record plus the
// generation it was issued under - and the generation moves on every run
// and cancel, so a handle kept past either cancels nothing, even after the
// record has been issued again. The pool is per Manager, never per
// package: experiments run many kernels in parallel, and a record is bound
// to its Manager's kernel and core.
package event

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"

	"ebbrt/internal/costs"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// Reserved interrupt vectors.
const (
	// VecIPI is the inter-processor interrupt used to kick a halted core
	// when another core spawns an event on it.
	VecIPI = 0
	// VecTimer is the per-core timer interrupt.
	VecTimer = 1
	// vecFirstAllocatable is the first vector handed to devices.
	vecFirstAllocatable = 32
)

// Costs are the runtime-level costs of the native environment. They are
// deliberately small: the paper's point is that the path from interrupt to
// application is short.
type Costs struct {
	// EventDispatch is charged per handler invocation (loop bookkeeping,
	// branch to handler).
	EventDispatch sim.Time
	// IdlePoll is the minimum charge for one pass over the idle handlers,
	// bounding the virtual-time cost of a polling spin.
	IdlePoll sim.Time
	// ContextSave is charged when an event saves its state to block, and
	// again when it is reactivated (paper §3.2 save/restore).
	ContextSave sim.Time
}

// DefaultCosts returns the native runtime costs of the cost table.
func DefaultCosts() Costs {
	return Costs{
		EventDispatch: costs.EventDispatchNs,
		IdlePoll:      costs.IdlePollNs,
		ContextSave:   costs.ContextSaveNs,
	}
}

// Handler is an event handler. It runs non-preemptively on one core.
type Handler func(*Ctx)

// synthItem is one entry of the synthetic event queue: either a fresh
// spawned handler or the resumption of a blocked event context.
type synthItem struct {
	fn  Handler
	act *activation
}

// Manager is the per-core EventManager Ebb.
type Manager struct {
	core  *machine.Core
	k     *sim.Kernel
	costs Costs

	handlers []Handler // by vector; nil where none is bound

	synth     []synthItem // the queue is synth[synthHead:]
	synthHead int
	// idle is edited in place. During a pass (idlePasses > 0, more than
	// one while a handler of a pass is blocked) Add appends past the
	// length each pass visits and Remove only clears the handler's slot,
	// so no handler moves under a pass; the last pass to end compacts.
	idle       []*IdleHandler
	idlePasses int
	timerReady []Timer // latched by fire, run by the next VecTimer batch
	timerSpare []Timer // the emptied array of the batch that finished last
	processFn  func()  // m.process, made once instead of per event
	idlePass   Handler // likewise the handler that runs one idle pass

	pool   []*activation // free activations
	timers []*timerRec   // free timer records

	// running is the handler whose event holds the core, from exec until
	// it returns or blocks, and runningAt the kernel callback it runs in
	// (sim.Kernel.Fired). A handler that panics leaves the mark, and its
	// core no next loop step: see checkWedged.
	running   Handler
	runningAt uint64

	// Dispatched counts handler invocations, for tests and stats.
	Dispatched uint64
}

// IdleHandler is an idle callback, made once by NewIdleHandler and
// installed and removed as often as its owner switches to polling and
// back.
type IdleHandler struct {
	fn        Handler
	installed bool
}

// NewIdleHandler makes the idle handler that runs fn; AddIdleHandler
// installs it.
func NewIdleHandler(fn Handler) *IdleHandler { return &IdleHandler{fn: fn} }

// NewManager creates the event manager for a core and installs itself as
// the core's interrupt dispatcher. The core starts halted with interrupts
// enabled, awaiting its first event.
func NewManager(core *machine.Core, rc Costs) *Manager {
	m := &Manager{
		core:     core,
		k:        core.M.K,
		costs:    rc,
		handlers: make([]Handler, vecFirstAllocatable),
	}
	m.processFn = m.process
	m.idlePass = func(c *Ctx) {
		m.idlePasses++
		// Handlers added during the pass lie past n and wait for the
		// next one; m.idle is read afresh, as an Add may move the array.
		for i, n := 0, len(m.idle); i < n; i++ {
			if ih := m.idle[i]; ih != nil {
				ih.fn(c)
			}
		}
		if m.idlePasses--; m.idlePasses == 0 {
			m.idle = slices.DeleteFunc(m.idle, func(ih *IdleHandler) bool { return ih == nil })
		}
		if c.charge < m.costs.IdlePoll {
			c.charge = m.costs.IdlePoll
		}
	}
	m.handlers[VecIPI] = func(*Ctx) {}
	m.handlers[VecTimer] = func(c *Ctx) {
		// The batch keeps its array until its last handler has returned -
		// one of them may block, and a later batch run meanwhile - and
		// then leaves it, emptied, for fire to start the next list in.
		// Timers that latched together raised the vector once each: the
		// first batch ran them all, the others find no list. A timer
		// cancelled while latched is skipped.
		ready := m.timerReady
		if ready == nil {
			return
		}
		m.timerReady = nil
		for _, t := range ready {
			if fn := t.take(); fn != nil {
				fn(c)
			}
		}
		clear(ready)
		m.timerSpare = ready[:0]
	}
	core.SetDispatcher(m.onIRQ)
	core.SetLatchCheck(m.checkWedged)
	core.EnableInterrupts()
	core.Halt()
	return m
}

// Core returns the core this manager drives.
func (m *Manager) Core() *machine.Core { return m.core }

// AllocateVector allocates a fresh interrupt vector bound to h, the
// interface device drivers use (paper §3.2).
func (m *Manager) AllocateVector(h Handler) int {
	m.handlers = append(m.handlers, h)
	return len(m.handlers) - 1
}

// Spawn queues fn to run as a synthetic event on this core. Spawned events
// run once; for recurring work install an IdleHandler.
func (m *Manager) Spawn(fn Handler) {
	m.synth = append(m.synth, synthItem{fn: fn})
	m.kick()
}

// timerRec is one pooled timer record: issued from After until its handler
// starts or it is cancelled - pending in the kernel, then latched on
// m.timerReady - and on m.timers otherwise.
type timerRec struct {
	m   *Manager
	ev  *sim.Event // runs fire
	fn  Handler
	gen uint64 // how many times the record has been issued and finished
}

// Timer is a handle to one timer started by After. The zero Timer is inert.
type Timer struct {
	rec *timerRec
	gen uint64
}

// After schedules fn to run once, as a timer event, after d of virtual time.
func (m *Manager) After(d sim.Time, fn Handler) Timer {
	var t *timerRec
	if n := len(m.timers); n > 0 {
		t, m.timers = m.timers[n-1], m.timers[:n-1]
	} else {
		t = &timerRec{m: m}
		t.ev = m.k.NewEvent(t.fire)
	}
	t.fn = fn
	t.ev.Reset(d)
	return Timer{t, t.gen}
}

// Cancel stops the timer and reports whether it did: it does until the
// handler starts, also once the timer's time has come and the handler waits,
// latched behind VecTimer, for the core - the batch then skips it. After
// the handler has started, or a second time, Cancel returns false.
func (t Timer) Cancel() bool {
	rec := t.rec
	if rec == nil || rec.gen != t.gen {
		return false
	}
	rec.ev.Cancel() // a no-op once latched
	rec.release()
	return true
}

// take starts a latched timer's run: it returns the handler and frees the
// record, or returns nil if the timer was cancelled since it latched.
func (t Timer) take() Handler {
	if t.rec.gen != t.gen {
		return nil
	}
	fn := t.rec.fn
	t.rec.release()
	return fn
}

// release frees the record; the handle to its current issue goes stale.
func (t *timerRec) release() {
	t.fn = nil
	t.gen++
	t.m.timers = append(t.m.timers, t)
}

// fire is the kernel event: latch the timer and raise the timer vector.
func (t *timerRec) fire() {
	m := t.m
	if m.timerReady == nil {
		m.timerReady, m.timerSpare = m.timerSpare, nil
	}
	m.timerReady = append(m.timerReady, Timer{t, t.gen})
	m.core.RaiseIRQ(VecTimer)
}

// AddIdleHandler installs ih to be invoked, after the handlers installed
// before it, on every pass of the event loop when the core would
// otherwise halt - the polling building block. Installing an installed
// handler panics.
func (m *Manager) AddIdleHandler(ih *IdleHandler) {
	if ih.installed {
		panic("event: idle handler installed twice")
	}
	ih.installed = true
	m.idle = append(m.idle, ih)
	m.kick()
}

// RemoveIdleHandler uninstalls ih; it does nothing if ih is not installed.
// A pass in progress that has not reached ih skips it.
func (m *Manager) RemoveIdleHandler(ih *IdleHandler) {
	if !ih.installed {
		return
	}
	ih.installed = false
	i := slices.Index(m.idle, ih)
	if m.idlePasses > 0 {
		m.idle[i] = nil
		return
	}
	m.idle = slices.Delete(m.idle, i, i+1)
}

// IdleHandlerCount reports installed idle handlers: the loop runs a pass
// while there is one, and tests read it.
func (m *Manager) IdleHandlerCount() int {
	n := 0
	for _, ih := range m.idle {
		if ih != nil {
			n++
		}
	}
	return n
}

// kick wakes a halted core so the loop notices queued synthetic work.
func (m *Manager) kick() {
	if m.core.Halted() {
		m.core.RaiseIRQ(VecIPI)
		return
	}
	m.checkWedged()
}

// checkWedged panics, as a Spawn, timer or interrupt is queued, if a
// handler's event never ended: its mark is from an earlier callback or a
// run that is over, so it panicked and a caller recovered and went on,
// and the core would never run the work.
func (m *Manager) checkWedged() {
	if m.running != nil && (m.runningAt != m.k.Fired() || !m.k.Running()) {
		panic(fmt.Sprintf("event: core %d has no event loop: handler %s panicked and its caller went on",
			m.core.ID, handlerName(m.running)))
	}
}

// handlerName is the name of fn's function, for a panic's message.
func handlerName(fn Handler) string {
	return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
}

// onIRQ is the interrupt entry point: the core was halted with interrupts
// enabled and vector vec fired.
func (m *Manager) onIRQ(vec int) {
	m.core.DisableInterrupts()
	m.runHandler(vec, costs.InterruptEntryNs)
}

// runHandler executes the handler for vec, charging base cost plus whatever
// the handler itself charges, then continues the loop at completion time.
func (m *Manager) runHandler(vec int, base sim.Time) {
	var h Handler
	if uint(vec) < uint(len(m.handlers)) {
		h = m.handlers[vec]
	}
	if h == nil {
		panic(fmt.Sprintf("event: core %d received unbound vector %d", m.core.ID, vec))
	}
	m.exec(h, base+m.costs.EventDispatch)
}

// exec runs fn as an event on a pooled activation, and schedules the next
// loop step after what the event has charged. If fn blocks, exec returns
// when it has finished, in the event that resumed it, whose charge it then
// schedules. The event's Ctx is the one embedded in the activation, so
// dispatch allocates nothing. That is sound because a Ctx is valid only
// during its event: nothing charges one later - a continuation that
// outlives its event gets the Ctx of the event that runs it (EthArpSend
// after an ARP miss re-enters through Spawn). A Ctx kept past its event
// would bill whichever event holds the activation next; under iobufdebug
// each event gets a fresh Ctx instead, so such a use finds its own
// finished and panics.
func (m *Manager) exec(fn Handler, base sim.Time) {
	act := m.getActivation()
	c := &act.own
	if CheckedCtx {
		c = new(Ctx)
	}
	*c = Ctx{m: m, act: act, fn: fn, charge: base}
	act.ctx = c
	m.Dispatched++
	m.running, m.runningAt = fn, m.k.Fired()
	fn(c)
	m.running = nil
	charge := c.charge
	c.end()
	act.ctx = nil
	m.pool = append(m.pool, act)
	m.k.Post(charge, m.processFn)
}

// resumeActivation continues a blocked activation as an event: its handler
// goes on, on its own stack, once the calling loop step has returned.
func (m *Manager) resumeActivation(act *activation) {
	act.ctx.charge = m.costs.EventDispatch + m.costs.ContextSave
	m.Dispatched++
	m.k.Resume(&act.park)
}

// process is the event loop: it runs each time the core finishes an event.
func (m *Manager) process() {
	// (1) pending hardware interrupts get priority, one per pass.
	if vec, ok := m.core.PopPending(); ok {
		m.runHandler(vec, costs.InterruptEntryNs)
		return
	}
	// (2) one synthetic event (spawn or blocked-context resumption).
	if m.synthHead < len(m.synth) {
		item := m.synth[m.synthHead]
		if m.synthHead++; 2*m.synthHead >= len(m.synth) {
			// Half or more is popped prefix (all of it, when the queue
			// drains): move the rest down and keep the backing array.
			n := copy(m.synth, m.synth[m.synthHead:])
			clear(m.synth[n:])
			m.synth, m.synthHead = m.synth[:n], 0
		}
		if item.act != nil {
			m.resumeActivation(item.act)
		} else {
			m.exec(item.fn, 0)
		}
		return
	}
	// (3) all idle handlers, as one pass.
	if m.IdleHandlerCount() > 0 {
		m.exec(m.idlePass, 0)
		return
	}
	// (4) nothing to do: enable interrupts and halt.
	m.core.EnableInterrupts()
	m.core.Halt()
}

// Ctx is the context of the currently executing event. It provides virtual
// CPU accounting and the save/restore blocking facility. A Ctx is valid
// only during its event - a handler that blocks is still in its event when
// it resumes - and is reused for a later event once its own has ended.
// Code that runs after the event that started it, such as a future's
// continuation, uses the Ctx of the event that runs it: one it is handed,
// or one it gets by re-entering the loop through Manager.Spawn (keep the
// Manager, not the Ctx). Under iobufdebug any use of a Ctx whose event
// has ended panics.
type Ctx struct {
	m      *Manager
	act    *activation
	fn     Handler
	charge sim.Time
}

// end closes the Ctx when its event finishes, leaving nothing reachable
// from it (see activation) - but, under iobufdebug, the handler, so that a
// later use can name it.
func (c *Ctx) end() {
	if CheckedCtx {
		c.m, c.act = nil, nil
		return
	}
	*c = Ctx{}
}

// live panics, under iobufdebug, if c's event has ended: what is charged to
// it then is lost, or billed to an unrelated event.
func (c *Ctx) live() {
	if CheckedCtx && c.m == nil {
		panic(fmt.Sprintf("event: Ctx of %s used after its event ended", handlerName(c.fn)))
	}
}

// Manager returns the event manager for the executing core.
func (c *Ctx) Manager() *Manager {
	c.live()
	return c.m
}

// Core returns the executing core.
func (c *Ctx) Core() *machine.Core {
	c.live()
	return c.m.core
}

// Now reports the virtual time at which the current event was dispatched.
func (c *Ctx) Now() sim.Time {
	c.live()
	return c.m.k.Now()
}

// Charge accounts d of CPU time to the current event.
func (c *Ctx) Charge(d sim.Time) {
	c.live()
	if d > 0 {
		c.charge += d
	}
}

// ChargeCycles accounts n CPU cycles at the core's clock rate.
func (c *Ctx) ChargeCycles(n float64) { c.Charge(c.Core().Cycles(n)) }

// Charged reports the total accounted so far (for tests).
func (c *Ctx) Charged() sim.Time {
	c.live()
	return c.charge
}

// Block suspends the current event (the paper's "save event state"),
// letting the core process other events. register receives a resume
// function; invoking it reactivates this event as if by ActivateContext.
// Block satisfies future.Blocker, so f.Block(ctx) awaits a future with
// blocking semantics.
func (c *Ctx) Block(register func(resume func())) {
	c.live()
	act := c.act
	resumed := false
	register(func() {
		if resumed {
			panic("event: context resumed twice")
		}
		resumed = true
		c.m.synth = append(c.m.synth, synthItem{act: act})
		c.m.kick()
	})
	m := c.m
	c.charge += m.costs.ContextSave
	m.k.Post(c.charge, m.processFn)
	m.running = nil // the core goes on: a parked event is no wedge
	m.k.Park(&act.park)
	m.running, m.runningAt = c.fn, m.k.Fired()
}
