package event

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"weak"

	"ebbrt/internal/future"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

func newTestEnv(cores int) (*sim.Kernel, *machine.Machine, []*Manager) {
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("test", cores))
	mgrs := make([]*Manager, cores)
	for i := range mgrs {
		mgrs[i] = NewManager(m.Cores[i], DefaultCosts())
	}
	return k, m, mgrs
}

func TestSpawnRunsOnce(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	count := 0
	mgrs[0].Spawn(func(*Ctx) { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("spawned event ran %d times", count)
	}
	if !mgrs[0].Core().Halted() {
		t.Fatal("core did not halt after draining")
	}
}

func TestSpawnFIFO(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		mgrs[0].Spawn(func(*Ctx) { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// The queue keeps its backing array by moving the unpopped part down; order
// must survive that while handlers keep spawning into a queue that never
// drains.
func TestSpawnFIFOWhileQueueStaysBusy(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var order []int
	next := 0
	var spawn func()
	spawn = func() {
		id := next
		next++
		m.Spawn(func(*Ctx) {
			order = append(order, id)
			for i := 0; i < 2 && next < 3000; i++ {
				spawn()
			}
		})
	}
	for i := 0; i < 5; i++ {
		spawn()
	}
	k.Run()
	if len(order) != 3000 || !sort.IntsAreSorted(order) {
		t.Fatalf("%d events ran, in order: %v", len(order), sort.IntsAreSorted(order))
	}
}

func TestChargeAdvancesTime(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var doneAt sim.Time
	mgrs[0].Spawn(func(c *Ctx) { c.Charge(5 * sim.Microsecond) })
	mgrs[0].Spawn(func(c *Ctx) { doneAt = c.Now() })
	k.Run()
	if doneAt < 5*sim.Microsecond {
		t.Fatalf("second event at %v, want >= 5us (first event's charge)", doneAt)
	}
}

func TestChargeCycles(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var charged sim.Time
	mgrs[0].Spawn(func(c *Ctx) {
		before := c.Charged()
		c.ChargeCycles(2600) // 1us at 2.6GHz
		charged = c.Charged() - before
	})
	k.Run()
	if charged != 1*sim.Microsecond {
		t.Fatalf("2600 cycles charged %v, want 1us", charged)
	}
}

func TestInterruptPriorityOverSynthetic(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var order []string
	vec := m.AllocateVector(func(*Ctx) { order = append(order, "irq") })
	m.Spawn(func(c *Ctx) {
		// While this event runs (interrupts disabled), both an IRQ and a
		// spawn arrive. The IRQ must dispatch first.
		m.Spawn(func(*Ctx) { order = append(order, "synth") })
		c.Core().RaiseIRQ(vec)
	})
	k.Run()
	if len(order) != 2 || order[0] != "irq" || order[1] != "synth" {
		t.Fatalf("order = %v, want [irq synth]", order)
	}
}

func TestPendingIRQOrderPreserved(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var order []int
	v1 := m.AllocateVector(func(*Ctx) { order = append(order, 1) })
	v2 := m.AllocateVector(func(*Ctx) { order = append(order, 2) })
	v3 := m.AllocateVector(func(*Ctx) { order = append(order, 3) })
	m.Spawn(func(c *Ctx) {
		c.Core().RaiseIRQ(v1)
		c.Core().RaiseIRQ(v2)
		c.Core().RaiseIRQ(v3)
	})
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestIdleHandlerPolling(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	polls := 0
	var ih *IdleHandler
	ih = NewIdleHandler(func(c *Ctx) {
		polls++
		if polls == 10 {
			m.RemoveIdleHandler(ih)
		}
	})
	m.AddIdleHandler(ih)
	k.RunUntil(1 * sim.Millisecond)
	if polls != 10 {
		t.Fatalf("idle handler polled %d times, want exactly 10 (then removed)", polls)
	}
	if !m.Core().Halted() {
		t.Fatal("core did not halt after idle handler removed")
	}
	if m.IdleHandlerCount() != 0 {
		t.Fatal("idle handler still installed")
	}
}

// The idle list keeps registration order while handlers come and go
// during a pass: A removing itself does not make the pass skip B, B and C
// run in order in the next pass, and A, added again, runs after C - also
// when it is added again in the pass that removed it.
func TestIdleHandlerOrder(t *testing.T) {
	for _, readdIn := range []int{1, 2} {
		k, _, mgrs := newTestEnv(1)
		m := mgrs[0]
		var log []byte
		var a, b, c *IdleHandler
		passes, aRuns := 0, 0
		a = NewIdleHandler(func(*Ctx) {
			log = append(log, 'A')
			if aRuns++; aRuns == 1 {
				m.RemoveIdleHandler(a)
			} else {
				m.RemoveIdleHandler(a)
				m.RemoveIdleHandler(b)
				m.RemoveIdleHandler(c)
			}
		})
		b = NewIdleHandler(func(*Ctx) {
			passes++
			log = append(log, 'B')
		})
		c = NewIdleHandler(func(*Ctx) {
			log = append(log, 'C', ' ')
			if passes == readdIn {
				m.AddIdleHandler(a)
			}
		})
		m.AddIdleHandler(a)
		m.AddIdleHandler(b)
		m.AddIdleHandler(c)
		k.RunUntil(sim.Millisecond)
		want := map[int]string{1: "ABC BC A", 2: "ABC BC BC A"}[readdIn]
		if got := string(log); got != want {
			t.Fatalf("A added again in pass %d: passes ran %q, want %q", readdIn, got, want)
		}
		if !m.Core().Halted() || m.IdleHandlerCount() != 0 {
			t.Fatalf("A added again in pass %d: %d idle handlers left", readdIn, m.IdleHandlerCount())
		}
	}
}

func TestIdlePollConsumesVirtualTime(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	m.AddIdleHandler(NewIdleHandler(func(*Ctx) {}))
	// If polling were free the kernel would loop forever at t=0.
	k.RunUntil(10 * sim.Microsecond)
	if k.Now() != 10*sim.Microsecond {
		t.Fatalf("now = %v", k.Now())
	}
	if m.Dispatched == 0 || m.Dispatched > 1000 {
		t.Fatalf("dispatched = %d, want bounded spinning", m.Dispatched)
	}
}

func TestIdleHandlerYieldsToInterrupt(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var order []string
	vec := m.AllocateVector(func(*Ctx) { order = append(order, "irq") })
	polls := 0
	m.AddIdleHandler(NewIdleHandler(func(*Ctx) {
		polls++
		if len(order) < 3 {
			order = append(order, "poll")
		}
	}))
	k.After(1*sim.Microsecond, func() { m.Core().RaiseIRQ(vec) })
	k.RunUntil(5 * sim.Microsecond)
	// The interrupt must have been dispatched even though idle handlers
	// keep the core busy.
	found := false
	for _, s := range order {
		if s == "irq" {
			found = true
		}
	}
	if !found {
		t.Fatalf("interrupt starved by idle handlers: %v", order)
	}
}

func TestTimer(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var firedAt sim.Time
	m.After(100*sim.Microsecond, func(c *Ctx) { firedAt = c.Now() })
	k.Run()
	if firedAt < 100*sim.Microsecond || firedAt > 102*sim.Microsecond {
		t.Fatalf("timer fired at %v", firedAt)
	}
}

func TestTimerCancel(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	ev := m.After(100*sim.Microsecond, func(*Ctx) { t.Fatal("cancelled timer fired") })
	ev.Cancel()
	k.Run()
}

// A timer whose time comes while the core is busy is latched behind
// VecTimer, and can still be cancelled there: an interrupt latched ahead of
// it cancels it, Cancel says so, and the batch skips its handler.
func TestLatchedTimerCanBeCancelled(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	ran := false
	timer := m.After(5*sim.Microsecond, func(*Ctx) { ran = true })
	cancelled := false
	vec := m.AllocateVector(func(*Ctx) { cancelled = timer.Cancel() })
	m.Spawn(func(c *Ctx) { c.Charge(10 * sim.Microsecond) })
	k.At(4*sim.Microsecond, func() { m.Core().RaiseIRQ(vec) })
	k.Run()
	if !cancelled || ran {
		t.Fatalf("latched timer: Cancel returned %v, handler ran %v; want true and false", cancelled, ran)
	}
	if timer.Cancel() {
		t.Fatal("a second Cancel returned true")
	}
	if len(m.timers) != 1 {
		t.Fatalf("pool holds %d records after the cancel, want 1", len(m.timers))
	}
}

// A world that is dropped is collected, and then so are its kernel's
// goroutines: the runner a handler blocked on, and the one that went on
// with the loop meanwhile. Both wait idle between runs, so they are roots;
// neither keeps anything of the kernel then, so the kernel's cleanup ends
// them once it is collected.
func TestDroppedWorldIsCollectable(t *testing.T) {
	goroutines := settledGoroutines()
	mgr := func() weak.Pointer[Manager] {
		k, _, mgrs := newTestEnv(1)
		m := mgrs[0]
		p := future.NewPromise[int]()
		ran := 0
		for i := 0; i < 3; i++ {
			m.Spawn(func(*Ctx) { ran++ })
		}
		m.Spawn(func(c *Ctx) {
			if v, err := p.Future().Block(c); err == nil {
				ran += v
			}
		})
		m.After(sim.Microsecond, func(*Ctx) { p.SetValue(1) })
		m.After(2*sim.Microsecond, func(*Ctx) { ran++ })
		m.After(3*sim.Microsecond, func(*Ctx) { ran += 100 }).Cancel()
		k.Run()
		if ran != 5 || len(m.pool) < 2 {
			t.Fatalf("%d handlers ran, %d activations pooled; want 5 and at least 2", ran, len(m.pool))
		}
		if n := runtime.NumGoroutine() - goroutines; n != 2 {
			t.Fatalf("the world runs on %d goroutines, want 2: the runner a handler blocked on and the one that went on", n)
		}
		return weak.Make(m)
	}()
	runtime.GC()
	if mgr.Value() != nil {
		t.Fatal("a dropped Manager is still reachable: a goroutine of its kernel leads back to it")
	}
	// The cleanup that ends the kernel's goroutines runs after the kernel
	// has been collected, on a goroutine of the runtime's.
	for i := 0; i < 100 && runtime.NumGoroutine() > goroutines; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines outlive the dropped world: its kernel's runners were never ended", n-goroutines)
	}
}

// A handle kept past its timer's fire or cancel returns false and cancels
// nothing, even once the pooled record behind it has been issued to another
// After; the zero Timer is inert.
func TestStaleTimerHandleCancelsNothing(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	if (Timer{}).Cancel() {
		t.Fatal("zero Timer cancelled something")
	}
	fired := 0
	count := func(*Ctx) { fired++ }

	firedHandle := m.After(sim.Microsecond, count)
	k.Run()
	cancelledHandle := m.After(sim.Microsecond, func(*Ctx) { t.Error("cancelled timer fired") })
	if !cancelledHandle.Cancel() {
		t.Fatal("Cancel of a pending timer returned false")
	}
	if len(m.timers) != 1 {
		t.Fatalf("pool holds %d records after one timer at a time, want 1", len(m.timers))
	}
	// The one pooled record now serves a third timer.
	live := m.After(sim.Microsecond, count)
	if live.rec != firedHandle.rec || live.rec != cancelledHandle.rec {
		t.Fatal("the pooled record was not re-issued; the test proves nothing")
	}
	if firedHandle.Cancel() || cancelledHandle.Cancel() {
		t.Fatal("a stale handle's Cancel returned true")
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("%d timers fired, want 2: a stale handle cancelled the record's new timer", fired)
	}
	if live.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

// perEvent is what dispatching one event allocates: nothing, or under
// iobufdebug the Ctx of its own that each event gets.
func perEvent() float64 {
	if CheckedCtx {
		return 1
	}
	return 0
}

// Arming and firing a timer whose handler is already bound allocates
// nothing: no handle, no closure, no kernel event, no ready list - VecTimer's
// batch hands its array back - and no Ctx for the event it runs in.
func TestTimerArmAllocatesNothing(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	h := func(*Ctx) {}
	m.After(sim.Microsecond, h)
	k.Run()
	if n := testing.AllocsPerRun(100, func() { m.After(sim.Microsecond, h).Cancel() }); n != 0 {
		t.Fatalf("After+Cancel allocated %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.After(sim.Microsecond, h); k.Run() }); n != perEvent() {
		t.Fatalf("After+fire allocated %.0f objects, want %.0f", n, perEvent())
	}
}

// Timers that come due while the core is busy latch together and raise
// the timer vector once each: the first batch runs them all and the second
// finds nothing - and must not cost the list its array.
func TestTimersLatchedTogetherKeepTheirList(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	fired := 0
	h := func(*Ctx) { fired++ }
	busy := func(c *Ctx) { c.Charge(5 * sim.Microsecond) }
	step := func() {
		m.Spawn(busy)
		m.After(sim.Microsecond, h)
		m.After(sim.Microsecond, h)
		k.Run()
	}
	step()
	before := m.Dispatched
	step()
	events := m.Dispatched - before
	if fired != 4 || events != 4 {
		t.Fatalf("%d timers fired in %d events a step, want 2 in 4 (wake-up, busy, batch, empty batch)", fired/2, events)
	}
	if n := testing.AllocsPerRun(100, step); n != perEvent()*float64(events) {
		t.Fatalf("a step allocated %.0f objects over %d events, want %.0f", n, events, perEvent()*float64(events))
	}
}

// A timer handler may block in the middle of its batch. The batch resumes
// where it stopped, with its own list: batches that run meanwhile neither
// reorder it nor empty it, and every handler runs once.
func TestTimerBatchBlockedMidwayKeepsItsList(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	p := future.NewPromise[int]()
	var order []string
	note := func(s string) Handler { return func(*Ctx) { order = append(order, s) } }
	m.After(10*sim.Microsecond, func(c *Ctx) {
		order = append(order, "a-blocks")
		if _, err := p.Future().Block(c); err != nil {
			t.Errorf("Block: %v", err)
		}
		order = append(order, "a-resumes")
	})
	m.After(10*sim.Microsecond, note("b"))
	m.After(10*sim.Microsecond, note("c"))
	// The core is busy when the three come due, so they latch as one batch.
	k.At(8*sim.Microsecond, func() { m.Spawn(func(c *Ctx) { c.Charge(5 * sim.Microsecond) }) })
	for round := 0; round < 3; round++ { // batches that start and finish while a is blocked
		at := sim.Time(20+10*round) * sim.Microsecond
		m.After(at, note("d"))
		m.After(at, note("e"))
	}
	m.After(60*sim.Microsecond, func(*Ctx) { p.SetValue(1) })
	k.Run()
	want := "a-blocks d e d e d e a-resumes b c"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("timer handlers ran as %q, want %q", got, want)
	}
}

func TestBlockAndResume(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	p := future.NewPromise[int]()
	var got int
	var resumedAt sim.Time
	m.Spawn(func(c *Ctx) {
		v, err := p.Future().Block(c)
		if err != nil {
			t.Errorf("Block error: %v", err)
		}
		got = v
		resumedAt = c.Now()
	})
	m.After(50*sim.Microsecond, func(*Ctx) { p.SetValue(42) })
	k.Run()
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if resumedAt < 50*sim.Microsecond {
		t.Fatalf("resumed at %v, before fulfillment", resumedAt)
	}
}

func TestBlockDoesNotStallOtherEvents(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	p := future.NewPromise[future.Unit]()
	var order []string
	m.Spawn(func(c *Ctx) {
		order = append(order, "blocker-start")
		_, _ = p.Future().Block(c)
		order = append(order, "blocker-end")
	})
	m.Spawn(func(*Ctx) { order = append(order, "other") })
	m.After(10*sim.Microsecond, func(*Ctx) { p.SetValue(future.Unit{}) })
	k.Run()
	want := []string{"blocker-start", "other", "blocker-end"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedBlocks(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	p1 := future.NewPromise[int]()
	p2 := future.NewPromise[int]()
	total := 0
	m.Spawn(func(c *Ctx) {
		a, _ := p1.Future().Block(c)
		b, _ := p2.Future().Block(c)
		total = a + b
	})
	m.After(10*sim.Microsecond, func(*Ctx) { p1.SetValue(1) })
	m.After(20*sim.Microsecond, func(*Ctx) { p2.SetValue(2) })
	k.Run()
	if total != 3 {
		t.Fatalf("total = %d", total)
	}
}

func TestCrossCoreSpawnWakesHaltedCore(t *testing.T) {
	k, _, mgrs := newTestEnv(2)
	ran := -1
	mgrs[0].Spawn(func(*Ctx) {
		mgrs[1].Spawn(func(c *Ctx) { ran = c.Core().ID })
	})
	k.Run()
	if ran != 1 {
		t.Fatalf("event ran on core %d, want 1", ran)
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []int {
		k, _, mgrs := newTestEnv(4)
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			core := i % 4
			mgrs[core].After(sim.Time(i%7)*sim.Microsecond, func(*Ctx) {
				order = append(order, i)
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two identical runs diverged: nondeterminism")
		}
	}
}

// A vector past the table, and one inside it that nothing bound, panic.
func TestUnboundVectorPanics(t *testing.T) {
	for _, vec := range []int{5, 99} {
		k, _, mgrs := newTestEnv(1)
		mgrs[0].AllocateVector(func(*Ctx) {})
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprint("unbound vector ", vec)) {
					t.Fatalf("vector %d: recovered %q", vec, msg)
				}
			}()
			mgrs[0].Core().RaiseIRQ(vec)
			k.Run()
		}()
	}
}
