package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"
)

// settledGoroutines lets the cleanups of kernels dropped by earlier tests
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

// A Step whose event parks has taken its step: it returns once the loop
// has moved to another runner, without firing the next event.
func TestStepThatParksCountsAsTheStep(t *testing.T) {
	k := NewKernel()
	var p Parker
	var got []string
	k.Post(1, func() {
		got = append(got, "parks")
		k.Park(&p)
		got = append(got, fmt.Sprint("resumed at ", k.Now()))
	})
	k.Post(2, func() { got = append(got, "second") })
	k.Post(3, func() {
		got = append(got, "resumes")
		k.Resume(&p)
	})
	k.Post(4, func() { got = append(got, "last") })
	for i, want := range []string{
		"parks",
		"parks second",
		"parks second resumes resumed at 0.003us",
		"parks second resumes resumed at 0.003us last",
	} {
		if !k.Step() {
			t.Fatalf("Step %d found nothing to fire", i+1)
		}
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("after Step %d: %q, want %q", i+1, s, want)
		}
	}
	if k.Step() {
		t.Fatal("a fifth Step fired something")
	}
}

// A parked callback's continuation runs right after the callback that
// resumed it, before anything else due at the same instant, and then the
// loop goes on from its stack; parks and resumes span RunUntil slices and
// resume out of order.
func TestContinuationRunsRightAfterItsResumer(t *testing.T) {
	k := NewKernel()
	var ps [3]Parker
	var got []string
	for i := range ps {
		k.Post(Time(i), func() {
			got = append(got, fmt.Sprint("park", i))
			k.Park(&ps[i])
			got = append(got, fmt.Sprint("cont", i))
			k.Post(0, func() { got = append(got, fmt.Sprint("after", i)) })
		})
	}
	for j, i := range []int{2, 0, 1} {
		at := Time(10 * (j + 1))
		k.PostAt(at, func() {
			got = append(got, fmt.Sprint("resume", i))
			k.Resume(&ps[i])
		})
		k.PostAt(at, func() { got = append(got, "tie") })
	}
	for k.Pending() > 0 {
		k.RunFor(7)
	}
	want := "park0 park1 park2 " +
		"resume2 cont2 tie after2 " +
		"resume0 cont0 tie after0 " +
		"resume1 cont1 tie after1"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("fired %q\nwant  %q", s, want)
	}
}

func explodingCallback() { panic("boom") }

// A panic in a callback on one runner, while a callback is parked on
// another, reaches the caller with the callback's stack; the kernel goes
// on after it, and the parked callback still resumes.
func TestPanicOnASpareReachesTheCaller(t *testing.T) {
	k := NewKernel()
	var p Parker
	resumed := false
	k.Post(1, func() { k.Park(&p); resumed = true })
	k.Post(2, explodingCallback)
	k.Post(3, func() { k.Resume(&p) })
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "boom") || !strings.Contains(msg, "explodingCallback") {
				t.Fatalf("recovered %q, want the panic value and the callback's frame", msg)
			}
		}()
		k.Run()
		t.Fatal("Run returned past a panicking callback")
	}()
	k.Run()
	if !resumed || k.Pending() != 0 {
		t.Fatalf("after the panic: resumed %v, %d pending", resumed, k.Pending())
	}
}

// runtime.Goexit (t.FailNow) in a callback on one runner, while a
// callback is parked on another, ends the goroutine that called Run, which
// neither hangs nor returns normally; the kernel goes on from another
// goroutine.
func TestGoexitOnASpareEndsTheCaller(t *testing.T) {
	k := NewKernel()
	var p Parker
	resumed := false
	k.Post(1, func() { k.Park(&p); resumed = true })
	k.Post(2, func() { runtime.Goexit() })
	k.Post(3, func() { k.Resume(&p) })
	exited := make(chan bool)
	go func() {
		defer func() { exited <- true }()
		k.Run()
		exited <- false
	}()
	select {
	case byGoexit := <-exited:
		if !byGoexit {
			t.Fatal("Run returned normally past a callback that called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the kernel's caller is stuck behind a callback that called Goexit")
	}
	k.Run()
	if !resumed || k.Pending() != 0 {
		t.Fatalf("after the Goexit: resumed %v, %d pending", resumed, k.Pending())
	}
}

// Park and Resume belong to callbacks of an outermost run: outside one, or
// in a callback that a callback's own Step runs inline, they panic.
func TestParkAndResumeNeedAnOutermostRun(t *testing.T) {
	k := NewKernel()
	var p Parker
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside a callback") {
				t.Fatalf("%s: recovered %q", what, msg)
			}
		}()
		f()
	}
	mustPanic("Park outside a run", func() { k.Park(&p) })
	mustPanic("Resume outside a run", func() { k.Resume(&p) })
	k.Post(1, func() { k.Step() })
	k.Post(2, func() { k.Park(&p) })
	mustPanic("Park in a nested Step", k.Run)
}

// A dropped kernel is collected even after a callback parked on it - its
// two runners keep nothing of it between runs - and its cleanup then ends
// both.
func TestDroppedKernelEndsItsGoroutines(t *testing.T) {
	goroutines := settledGoroutines()
	kernel := func() weak.Pointer[Kernel] {
		k := NewKernel()
		var p Parker
		k.Post(1, func() { k.Park(&p) })
		k.Post(2, func() { k.Resume(&p) })
		k.Run()
		if n := runtime.NumGoroutine() - goroutines; n != 2 {
			t.Fatalf("a run with one parked callback left %d goroutines, want 2: the runner that parked and the one that took the loop", n)
		}
		return weak.Make(k)
	}()
	for i := 0; i < 100 && runtime.NumGoroutine() > goroutines; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if kernel.Value() != nil {
		t.Fatal("a dropped Kernel is still reachable")
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines outlive the dropped Kernel", n-goroutines)
	}
}

// Resuming a Parker that holds nothing, or two in one callback, panics.
func TestResumeMisusePanics(t *testing.T) {
	k := NewKernel()
	var a, b, idle Parker
	k.Post(1, func() { k.Park(&a) })
	k.Post(2, func() { k.Park(&b) })
	k.Run()
	for _, c := range []struct {
		want string
		fn   func()
	}{
		{"holds no parked callback", func() { k.Resume(&idle) }},
		{"resumed two parked callbacks", func() { k.Resume(&a); k.Resume(&b) }},
	} {
		k.Post(1, c.fn)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Fatalf("recovered %q, want %q", msg, c.want)
				}
			}()
			k.Run()
		}()
	}
	var order []string
	k.Post(1, func() { k.Resume(&b) })
	k.Post(1, func() { order = append(order, "tie") })
	k.Run() // the failed callback's Resume of a stands: a goes on first, then b
	if k.Pending() != 0 || !slices.Equal(order, []string{"tie"}) {
		t.Fatalf("%d pending, fired %v", k.Pending(), order)
	}
}

// A runner whose callback panicked goes idle like any other, and the runs
// after reuse it: 1,000 Steps after the recovered panic start no new
// goroutine, and a park and resume still work.
func TestRunnerLeftByAPanicIsReused(t *testing.T) {
	before := settledGoroutines()
	grew := func() int { return runtime.NumGoroutine() - before }
	k := NewKernel()
	k.Post(1, explodingCallback)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "boom") {
				t.Fatalf("recovered %q, want the callback's panic", msg)
			}
		}()
		k.Run()
	}()
	if grew() != 1 {
		t.Fatalf("a run whose callback panicked left %d new goroutines, want 1", grew())
	}
	ran := 0
	for i := 0; i < 1000; i++ {
		k.Post(1, func() { ran++ })
		k.Step()
	}
	if ran != 1000 || grew() != 1 {
		t.Fatalf("%d of 1000 Steps ran, on %d new goroutines, want 1", ran, grew())
	}
	var p Parker
	resumed := false
	k.Post(1, func() { k.Park(&p); resumed = true })
	k.Post(2, func() { k.Resume(&p) })
	k.Run()
	if !resumed || k.Pending() != 0 || grew() != 2 {
		t.Fatalf("park and resume: resumed %v, %d pending, %d new goroutines, want 2", resumed, k.Pending(), grew())
	}
}
