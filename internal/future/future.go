// Package future implements EbbRT's monadic futures (paper §3.5).
//
// A Future[T] represents a value produced asynchronously. Unlike the C++
// standard library future, callbacks can be chained with Then, and the
// returned future represents the chained function's result - hence
// "monadic". Errors flow through a chain exactly like exceptions flow
// through synchronous code: an intermediate link that does not inspect the
// error simply forwards it, and only the final consumer must handle it.
//
// Futures are safe for concurrent use; inside the deterministic simulation
// they are fulfilled from a single kernel goroutine, but the same
// implementation backs the hosted (real-concurrency) environment.
package future

import (
	"errors"
	"fmt"
	"sync"
)

// Result carries the outcome delivered to a Then callback: either a value
// or an error. Get mirrors the paper's Future::Get, which re-raises the
// captured exception; in Go it returns the error instead.
type Result[T any] struct {
	val T
	err error
}

// Get returns the value, or the error captured by the producing chain.
func (r Result[T]) Get() (T, error) { return r.val, r.err }

// Must returns the value and panics on error; for tests and examples where
// failure is a programming bug.
func (r Result[T]) Must() T {
	if r.err != nil {
		panic(fmt.Sprintf("future: Must on failed result: %v", r.err))
	}
	return r.val
}

// Err returns the captured error, if any.
func (r Result[T]) Err() error { return r.err }

type state[T any] struct {
	mu   sync.Mutex
	done bool
	res  Result[T]
	cbs  []func(Result[T])
}

func (s *state[T]) fulfill(res Result[T]) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		panic("future: promise fulfilled twice")
	}
	s.done = true
	s.res = res
	cbs := s.cbs
	s.cbs = nil
	s.mu.Unlock()
	for _, cb := range cbs {
		cb(res)
	}
}

func (s *state[T]) onDone(cb func(Result[T])) {
	s.mu.Lock()
	if s.done {
		res := s.res
		s.mu.Unlock()
		cb(res)
		return
	}
	s.cbs = append(s.cbs, cb)
	s.mu.Unlock()
}

// Promise is the producing side of a future.
type Promise[T any] struct{ st *state[T] }

// NewPromise returns a promise and its associated future state.
func NewPromise[T any]() Promise[T] { return Promise[T]{st: &state[T]{}} }

// Future returns the consuming side.
func (p Promise[T]) Future() Future[T] { return Future[T]{st: p.st} }

// SetValue fulfills the future with a value. Fulfilling twice panics: it
// indicates a protocol bug in the producer.
func (p Promise[T]) SetValue(v T) { p.st.fulfill(Result[T]{val: v}) }

// SetError fulfills the future with an error.
func (p Promise[T]) SetError(err error) { p.st.fulfill(Fail[T](err).res) }

// Future is the consuming side of an asynchronously produced value. One
// that was born fulfilled (Ready, Fail, or a chain step applied to such a
// future) has no shared state: st is nil and the value carries its result
// itself, so the synchronous path allocates nothing. The zero Future is
// Ready of T's zero value.
type Future[T any] struct {
	st  *state[T]
	res Result[T] // meaningful only while st is nil
}

// Ready returns an already-fulfilled future; Then callbacks on it run
// synchronously, the fast path the paper highlights for cached ARP entries.
func Ready[T any](v T) Future[T] { return Future[T]{res: Result[T]{val: v}} }

// Fail returns an already-failed future.
func Fail[T any](err error) Future[T] {
	if err == nil {
		err = errors.New("future: failed with a nil error")
	}
	return Future[T]{res: Result[T]{err: err}}
}

// resultOf is the Result of a chained function's return.
func resultOf[T any](v T, err error) Result[T] {
	if err != nil {
		return Result[T]{err: err}
	}
	return Result[T]{val: v}
}

// Done reports whether the future has been fulfilled.
func (f Future[T]) Done() bool {
	_, done := f.Poll()
	return done
}

// Poll returns the result if fulfilled. The boolean reports readiness.
func (f Future[T]) Poll() (Result[T], bool) {
	if f.st == nil {
		return f.res, true
	}
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	return f.st.res, f.st.done
}

// OnDone registers cb to run when the future fulfills (immediately if it
// already has). Callbacks run on the fulfilling goroutine, matching the
// event-driven execution model: continuation code runs on the event that
// produced the value.
func (f Future[T]) OnDone(cb func(Result[T])) {
	if f.st == nil {
		cb(f.res)
		return
	}
	f.st.onDone(cb)
}

// Blocker abstracts the event-manager facility for suspending the current
// event (paper §3.2 save/restore). register is called with a resume
// function to invoke when the awaited work completes.
type Blocker interface {
	Block(register func(resume func()))
}

// Block suspends the current event context until the future fulfills and
// returns its result. This is the hybrid model the paper describes for
// porting software with blocking semantics.
func (f Future[T]) Block(b Blocker) (T, error) {
	if res, ok := f.Poll(); ok {
		return res.Get()
	}
	var res Result[T]
	b.Block(func(resume func()) {
		f.OnDone(func(r Result[T]) {
			res = r
			resume()
		})
	})
	return res.Get()
}

// Then applies fn to the result once available and returns a future for
// fn's own result. fn receives the Result and may inspect the error -
// use this form to *handle* errors. Most code wants ThenOK.
func Then[T, U any](f Future[T], fn func(Result[T]) (U, error)) Future[U] {
	if f.st == nil {
		return Future[U]{res: resultOf(fn(f.res))}
	}
	p := NewPromise[U]()
	f.OnDone(func(r Result[T]) { p.st.fulfill(resultOf(fn(r))) })
	return p.Future()
}

// ThenOK applies fn only on success; an upstream error propagates to the
// returned future untouched. This reproduces the paper's exception-like
// flow where only the final Then must handle errors.
func ThenOK[T, U any](f Future[T], fn func(T) (U, error)) Future[U] {
	if f.st == nil && f.res.err == nil {
		return Future[U]{res: resultOf(fn(f.res.val))}
	}
	return Then(f, func(r Result[T]) (U, error) {
		v, err := r.Get()
		if err != nil {
			var zero U
			return zero, err
		}
		return fn(v)
	})
}

// Unit is the empty payload for futures that represent completion of an
// action with no data, the paper's Future<void>.
type Unit struct{}
