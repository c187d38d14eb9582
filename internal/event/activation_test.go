package event

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ebbrt/internal/sim"
)

func TestBlockSpansRunForSlices(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var stage []string
	mgrs[0].Spawn(func(c *Ctx) {
		stage = append(stage, "blocked")
		c.Block(func(resume func()) { k.Post(30*sim.Microsecond, resume) })
		stage = append(stage, fmt.Sprint("resumed at ", c.Now()))
	})
	k.RunFor(10 * sim.Microsecond)
	if !slices.Equal(stage, []string{"blocked"}) {
		t.Fatalf("after the first slice: %v", stage)
	}
	if !mgrs[0].Core().Halted() {
		t.Fatal("core did not halt with its only event parked")
	}
	k.RunFor(10 * sim.Microsecond) // nothing due in this one
	k.RunFor(20 * sim.Microsecond)
	if len(stage) != 2 || !strings.HasPrefix(stage[1], "resumed at 30.") {
		t.Fatalf("after the third slice: %v", stage)
	}
}

// Each handler blocks on its own runner's stack and resumes there, in an
// order of its own.
func TestBlockedHandlersResumeOutOfOrder(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var order []string
	resume := map[string]func(){}
	for _, name := range []string{"a", "b", "c"} {
		mgrs[0].Spawn(func(c *Ctx) {
			c.Block(func(r func()) { resume[name] = r })
			order = append(order, name)
		})
	}
	k.Run() // returns with all three parked
	if len(resume) != 3 || len(order) != 0 {
		t.Fatalf("parked %d, finished %v", len(resume), order)
	}
	for _, name := range []string{"c", "a", "b"} {
		resume[name]()
		k.Run()
	}
	if !slices.Equal(order, []string{"c", "a", "b"}) {
		t.Fatalf("resumed in order %v", order)
	}
}

// While a handler is blocked, a later handler blocks too and resumes,
// more than once, each time on a runner the first one is not on, and the
// first one finishes after it.
func TestBlockWhileAnEarlierHandlerIsBlocked(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var resumeFirst func()
	var got []string
	m.Spawn(func(c *Ctx) {
		c.Block(func(r func()) { resumeFirst = r })
		got = append(got, fmt.Sprint("first at ", c.Now()))
	})
	m.Spawn(func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Block(func(r func()) { k.Post(10*sim.Microsecond, r) })
			got = append(got, fmt.Sprint("second ", i))
		}
		k.Post(5*sim.Microsecond, resumeFirst)
	})
	k.Run()
	if want := "second 0 second 1 second 2 first at "; !strings.HasPrefix(strings.Join(got, " "), want) {
		t.Fatalf("ran %q, want it to start %q", strings.Join(got, " "), want)
	}
}

// settledGoroutines lets the cleanups of worlds dropped by earlier tests
// end their goroutines, and returns the count once it holds still.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// A world's goroutines are one runner for the loop and one per handler
// blocked at once, however many block and resume: the bench probe's shape
// - one handler that blocks, resumes and blocks again - reuses one idle
// runner, and run-to-completion handlers need none but the first.
func TestActivationsAreReused(t *testing.T) {
	before := settledGoroutines()
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	grew := func() int { return runtime.NumGoroutine() - before }
	ran := 0
	for i := 0; i < 1000; i++ {
		m.Spawn(func(*Ctx) { ran++ })
	}
	k.Run()
	if ran != 1000 || grew() != 1 {
		t.Fatalf("%d of 1000 handlers ran on %d new goroutines, want 1", ran, grew())
	}

	const rounds = 10000
	blocker := func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			c.Block(func(resume func()) { k.Post(sim.Microsecond, resume) })
			if i%1000 == 999 && grew() != 1+3 {
				t.Errorf("round %d: %d new goroutines, want 4", i, grew())
			}
		}
	}
	var resume []func()
	for i := 0; i < 3; i++ {
		m.Spawn(func(c *Ctx) { c.Block(func(r func()) { resume = append(resume, r) }) })
	}
	k.Run()
	if len(resume) != 3 || grew() != 1+3 {
		t.Fatalf("%d handlers blocked at once on %d new goroutines, want 3 on 4", len(resume), grew())
	}
	for _, r := range resume {
		r()
	}
	m.Spawn(blocker)
	m.Spawn(blocker)
	k.Run()
	if grew() != 1+3 {
		t.Fatalf("%d new goroutines after %d block/resume rounds of two handlers, want 4", grew(), rounds)
	}
}

// A run-to-completion handler is a plain call on the kernel's loop.
func TestHandlersRunOnTheLoopStack(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var frames []string
	mgrs[0].Spawn(func(*Ctx) {
		pc := make([]uintptr, 64)
		fs := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
		for f, more := fs.Next(); more; f, more = fs.Next() {
			frames = append(frames, f.Function)
		}
	})
	k.Run()
	if !slices.Contains(frames, "ebbrt/internal/sim.(*Kernel).fireNext") {
		t.Fatalf("the handler's stack does not hold the kernel's loop:\n%s", strings.Join(frames, "\n"))
	}
}

func explodingHandler(*Ctx) { panic("boom") }

func TestHandlerPanicReachesCallerWithItsStack(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	mgrs[0].Spawn(explodingHandler)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "explodingHandler") {
			t.Fatalf("recovered %q, want the panic value and the handler's frame", msg)
		}
	}()
	k.Run()
	t.Fatal("k.Run returned past a panicking handler")
}

// t.FailNow in a handler is runtime.Goexit on the runner that holds the
// loop; it must end the goroutine driving the kernel rather than leave it
// waiting.
func TestGoexitInHandlerEndsTheCaller(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	mgrs[0].Spawn(func(*Ctx) { runtime.Goexit() })
	exited := make(chan bool)
	go func() {
		defer func() { exited <- true }()
		k.Run()
		exited <- false
	}()
	select {
	case byGoexit := <-exited:
		if !byGoexit {
			t.Fatal("k.Run returned normally past a handler that called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the kernel's caller is stuck behind a handler that called Goexit")
	}
}

// A handler that panics leaves its core with no next loop step. A caller
// that recovers and goes on must hear so from the next Spawn, timer or
// interrupt on that core, which would otherwise never run: the panic
// names the core and the handler that left it. A handler that panics
// after it blocked and was resumed leaves the core the same way.
func TestWorkOnACoreAHandlerPanickedOnPanics(t *testing.T) {
	spawn := func(k *sim.Kernel, m *Manager) { m.Spawn(func(*Ctx) {}); k.Run() }
	for _, tc := range []struct {
		name  string
		block bool // the handler panics once resumed
		queue func(k *sim.Kernel, m *Manager)
	}{
		{name: "spawn", queue: spawn},
		{name: "timer", queue: func(k *sim.Kernel, m *Manager) { m.After(sim.Microsecond, func(*Ctx) {}); k.Run() }},
		{name: "interrupt", queue: func(k *sim.Kernel, m *Manager) {
			m.Core().RaiseIRQ(m.AllocateVector(func(*Ctx) {}))
			k.Run()
		}},
		{name: "spawn after a resumed handler", block: true, queue: spawn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, _, mgrs := newTestEnv(1)
			if tc.block {
				var resume func()
				mgrs[0].Spawn(func(c *Ctx) {
					c.Block(func(r func()) { resume = r })
					explodingHandler(c)
				})
				k.Run()
				resume()
			} else {
				mgrs[0].Spawn(explodingHandler)
			}
			func() {
				defer func() { recover() }()
				k.Run()
			}()
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "core 0 has no event loop") || !tc.block && !strings.Contains(msg, "explodingHandler") {
					t.Fatalf("recovered %q, want the core and the handler that panicked", msg)
				}
			}()
			tc.queue(k, mgrs[0])
			t.Fatal("work queued on the core a handler panicked on was silently lost")
		})
	}
}

// Blocking is no panic: a timer that latches while a handler saves its
// context to block, work queued while it is blocked, and work queued after
// it has resumed and finished all run.
func TestWorkBesideABlockedHandlerRuns(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	var resume func()
	ran := 0
	m.Spawn(func(c *Ctx) {
		m.After(sim.Nanosecond, func(*Ctx) { ran++ }) // due before the context is saved
		c.Block(func(r func()) { resume = r })
	})
	k.Run()
	m.Spawn(func(*Ctx) { ran++ })
	k.Run()
	resume()
	k.Run()
	m.Spawn(func(*Ctx) { ran++ })
	k.Run()
	if ran != 3 {
		t.Fatalf("%d of 3 handlers ran beside a blocked one", ran)
	}
}

func TestResumeTwicePanics(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	var resume func()
	mgrs[0].Spawn(func(c *Ctx) { c.Block(func(r func()) { resume = r }) })
	k.Run()
	resume()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "context resumed twice") {
			t.Fatalf("second resume: recovered %q", msg)
		}
	}()
	resume()
	t.Fatal("second resume did not panic")
}

// A handler that panics or calls runtime.Goexit while another is blocked
// ends the caller's run as it would with none blocked.
func TestPanicAndGoexitOnASpareReachTheCaller(t *testing.T) {
	blockedWorld := func() (*sim.Kernel, *Manager) {
		k, _, mgrs := newTestEnv(1)
		mgrs[0].Spawn(func(c *Ctx) { c.Block(func(func()) {}) })
		k.Run()
		return k, mgrs[0]
	}
	k, m := blockedWorld()
	m.Spawn(explodingHandler)
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "boom") || !strings.Contains(msg, "explodingHandler") {
				t.Fatalf("recovered %q, want the panic value and the handler's frame", msg)
			}
		}()
		k.Run()
		t.Fatal("k.Run returned past a panicking handler")
	}()

	k, m = blockedWorld()
	m.Spawn(func(*Ctx) { runtime.Goexit() })
	exited := make(chan bool)
	go func() {
		defer func() { exited <- true }()
		k.Run()
		exited <- false
	}()
	select {
	case byGoexit := <-exited:
		if !byGoexit {
			t.Fatal("k.Run returned normally past a handler that called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the kernel's caller is stuck behind a handler that called Goexit")
	}
}
