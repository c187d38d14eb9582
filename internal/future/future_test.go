package future

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestReadyThenRunsSynchronously(t *testing.T) {
	f := Ready(21)
	ran := false
	g := ThenOK(f, func(v int) (int, error) {
		ran = true
		return v * 2, nil
	})
	if !ran {
		t.Fatal("Then on ready future did not run synchronously")
	}
	r, ok := g.Poll()
	if !ok {
		t.Fatal("chained future not done")
	}
	if v, err := r.Get(); err != nil || v != 42 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestPromiseFulfillLater(t *testing.T) {
	p := NewPromise[string]()
	f := p.Future()
	if f.Done() {
		t.Fatal("future done before fulfill")
	}
	var got string
	f.OnDone(func(r Result[string]) { got = r.Must() })
	p.SetValue("hello")
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestErrorPropagationThroughChain(t *testing.T) {
	boom := errors.New("arp timeout")
	f := Fail[int](boom)
	mid := ThenOK(f, func(v int) (int, error) {
		t.Fatal("intermediate link ran despite error")
		return 0, nil
	})
	final := Then(mid, func(r Result[int]) (string, error) {
		if _, err := r.Get(); err != nil {
			return "handled:" + err.Error(), nil
		}
		return "no error", nil
	})
	r, _ := final.Poll()
	if v := r.Must(); v != "handled:arp timeout" {
		t.Fatalf("got %q", v)
	}
}

func TestThenProducesError(t *testing.T) {
	f := Ready(1)
	g := ThenOK(f, func(int) (int, error) { return 0, errors.New("downstream") })
	r, _ := g.Poll()
	if r.Err() == nil {
		t.Fatal("error not captured")
	}
}

func TestDoubleFulfillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double fulfill did not panic")
		}
	}()
	p := NewPromise[int]()
	p.SetValue(1)
	p.SetValue(2)
}

func TestSetErrorNil(t *testing.T) {
	p := NewPromise[int]()
	p.SetError(nil)
	r, _ := p.Future().Poll()
	if r.Err() == nil {
		t.Fatal("nil SetError should still produce an error")
	}
}

type chanBlocker struct{ wg sync.WaitGroup }

func (c *chanBlocker) Block(register func(resume func())) {
	done := make(chan struct{})
	register(func() { close(done) })
	<-done
}

func TestBlock(t *testing.T) {
	p := NewPromise[int]()
	got := make(chan int)
	go func() {
		v, err := p.Future().Block(&chanBlocker{})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	p.SetValue(99)
	if v := <-got; v != 99 {
		t.Fatalf("Block got %d", v)
	}
}

func TestBlockOnReadyFastPath(t *testing.T) {
	v, err := Ready(7).Block(nil) // nil Blocker: must not be touched on fast path
	if err != nil || v != 7 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestConcurrentOnDone(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.OnDone(func(Result[int]) {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}()
	}
	p.SetValue(1)
	wg.Wait()
	// Late registrations fire immediately; all 50 must have run.
	mu.Lock()
	defer mu.Unlock()
	if count != 50 {
		t.Fatalf("count = %d", count)
	}
}

// A future born fulfilled carries its result in the value; one fulfilled
// through a promise carries it in shared state. Nothing a consumer can do
// may tell them apart.
func TestInlineAndPromiseBackedFuturesAgree(t *testing.T) {
	boom := errors.New("boom")
	viaPromise := func(v int, err error) Future[int] {
		p := NewPromise[int]()
		if err != nil {
			p.SetError(err)
		} else {
			p.SetValue(v)
		}
		return p.Future()
	}
	// observe drives every consuming operation and renders what each saw.
	observe := func(f Future[int]) string {
		var out []string
		add := func(op string, err error, saw ...any) { out = append(out, fmt.Sprint(op, ": ", saw, " err=", err)) }
		polled := func(g Future[int]) (int, bool, error) { r, ok := g.Poll(); return r.val, ok, r.err }

		add("Done", nil, f.Done())
		v, ok, err := polled(f)
		add("Poll", err, v, ok)
		f.OnDone(func(r Result[int]) { add("OnDone, called before it returned", r.err, r.val) })
		v, err = f.Block(nil) // a fulfilled future never touches its Blocker
		add("Block", err, v)

		sawErr := false
		rs, ok := Then(f, func(r Result[int]) (string, error) { sawErr = r.err != nil; return "then", r.err }).Poll()
		add("Then", rs.err, rs.val, ok, sawErr)
		ran := false
		v, ok, err = polled(ThenOK(f, func(v int) (int, error) { ran = true; return v + 1, nil }))
		add("ThenOK", err, v, ok, ran)
		v, ok, err = polled(ThenOK(f, func(v int) (int, error) { return v, boom }))
		add("ThenOK failing", err, v, ok)

		return strings.Join(out, "\n")
	}
	for _, tc := range []struct {
		name   string
		inline Future[int]
		val    int
		err    error
	}{
		{"value", Ready(41), 41, nil},
		{"zero value", Future[int]{}, 0, nil},
		{"error", Fail[int](boom), 0, boom},
	} {
		got, want := observe(tc.inline), observe(viaPromise(tc.val, tc.err))
		if got != want {
			t.Errorf("%s: inline future observed\n%s\npromise-backed\n%s", tc.name, got, want)
		}
		if tc.err != nil && !strings.Contains(got, "ThenOK: [0 true false] err=boom") {
			t.Errorf("%s: ThenOK ran its function or lost the error:\n%s", tc.name, got)
		}
	}
	if _, err := Fail[int](nil).Block(nil); err == nil {
		t.Error("Fail(nil) produced a future without an error")
	}
}

// The cached-ARP shape of Figure 2: a chain step on a ready future runs
// synchronously and allocates nothing.
func TestReadyChainAllocatesNothing(t *testing.T) {
	double := func(v int) (int, error) { return 2 * v, nil }
	var sink Future[int]
	allocs := testing.AllocsPerRun(100, func() {
		sink = ThenOK(ThenOK(Ready(21), double), double)
	})
	if v, _ := sink.Block(nil); allocs != 0 || v != 84 {
		t.Fatalf("ThenOK(ThenOK(Ready(21), f), f) = %d with %v allocations, want 84 with 0", v, allocs)
	}
}
