package freelist

import "testing"

type obj struct {
	Node
	v int
}

func newList() *List[*obj] {
	return &List[*obj]{New: func() *obj { return new(obj) }}
}

func TestGetPutCountsAndReuses(t *testing.T) {
	l := newList()
	a, b := l.Get(), l.Get()
	if l.Outstanding() != 2 || l.Made() != 2 {
		t.Fatalf("after two Gets: outstanding %d, made %d", l.Outstanding(), l.Made())
	}
	a.v = 7
	l.Put(a)
	l.Put(b)
	if l.Outstanding() != 0 {
		t.Fatalf("after both Puts: outstanding %d", l.Outstanding())
	}
	c := l.Get()
	c.Live()
	if Checked {
		if c == a || c == b || l.Made() != 3 {
			t.Fatal("a Get under iobufdebug reused a released object")
		}
		return
	}
	if c != b || l.Made() != 2 {
		t.Fatalf("Get did not reuse the last released object (made %d)", l.Made())
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); allocs != 0 {
		t.Fatalf("a Get and Put of a free object allocated %.0f objects", allocs)
	}
}

func TestDoublePutPanics(t *testing.T) {
	l := newList()
	a := l.Get()
	l.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of the same object did not panic")
		}
	}()
	l.Put(a)
}

func TestLiveAfterPut(t *testing.T) {
	l := newList()
	a := l.Get()
	l.Put(a)
	defer func() {
		if got := recover() != nil; got != Checked {
			t.Fatalf("Live on a released object panicked: %v, want %v", got, Checked)
		}
	}()
	a.Live()
}
