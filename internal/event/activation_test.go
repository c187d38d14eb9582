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

// The bench probe's shape: one handler that blocks, resumes and blocks again.
// Every round trip reuses the same coroutine, and run-to-completion handlers
// in between reuse one pooled coroutine, so the goroutine count stays flat.
func TestActivationsAreReused(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	m.Spawn(func(*Ctx) {})
	k.Run() // the first activation exists from here on
	before := runtime.NumGoroutine()

	const rounds = 10000
	done := 0
	m.Spawn(func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			c.Block(func(resume func()) { k.Post(sim.Microsecond, resume) })
			done++
		}
	})
	k.Run()
	if done != rounds {
		t.Fatalf("%d of %d block/resume rounds", done, rounds)
	}
	ran := 0
	for i := 0; i < 1000; i++ {
		m.Spawn(func(*Ctx) { ran++ })
	}
	k.Run()
	if ran != 1000 {
		t.Fatalf("ran %d of 1000 handlers", ran)
	}
	if grew := runtime.NumGoroutine() - before; grew > 1 {
		t.Fatalf("goroutines grew by %d over %d block/resume rounds and 1000 handlers", grew, rounds)
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

// t.FailNow in a handler is runtime.Goexit on the activation's goroutine; it
// must end the goroutine driving the kernel rather than leave it waiting.
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
