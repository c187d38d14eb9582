package iobuf

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// Get hands out an empty element of the pool's class with one holder; each
// Retain needs its own Free; the last Free, whoever makes it, recycles the
// element - unlinked, view reset, cut buffer restored - and the next Get
// hands out that same element.
func TestPoolRecyclesOnLastFree(t *testing.T) {
	p := NewPool(64)
	b := p.Get(40)
	if b.Capacity() != 64 || b.Length() != 0 || b.Headroom() != 0 || b.IsChained() {
		t.Fatalf("Get(40): capacity %d, length %d, headroom %d", b.Capacity(), b.Length(), b.Headroom())
	}
	copy(b.Append(40), "0123456789012345678901234567890123456789")
	b.Advance(14)
	tail := chainOf([]byte("payload-bytes"), 7)
	b.AppendChain(tail)
	if rest := b.Split(20, nil); rest == nil || b.Capacity() == 64 {
		t.Fatal("the split did not cut inside the pooled element")
	}
	b.Retain()
	b.Free()
	if p.Outstanding() != 1 || len(p.free) != 0 {
		t.Fatalf("after one of two holders let go: %d out, %d free", p.Outstanding(), len(p.free))
	}
	if string(b.Data()) != "45678901234567890123" {
		t.Fatalf("a held element changed under its holder: %q", b.Data())
	}
	b.Free()
	if p.Outstanding() != 0 || len(p.free) != 1 {
		t.Fatalf("after the last holder let go: %d out, %d free", p.Outstanding(), len(p.free))
	}
	if again := p.Get(64); again != b {
		t.Fatal("the freed element was not the next one handed out")
	}
	if b.Capacity() != 64 || b.Length() != 0 || b.Headroom() != 0 || b.Tailroom() != 64 || b.IsChained() || b.Prev() != b {
		t.Fatalf("recycled element: capacity %d, length %d, headroom %d", b.Capacity(), b.Length(), b.Headroom())
	}
	if p.Outstanding() != 1 {
		t.Fatalf("%d out after the second Get", p.Outstanding())
	}
}

// The last Free takes the element out of its chain and leaves the rest a
// chain: a frame's payload views outlive its recycled header.
func TestFreeUnlinksFromChain(t *testing.T) {
	p := NewPool(16)
	head := p.Get(16)
	head.Append(4)
	rest := chainOf([]byte("abcdef"), 2, 4)
	head.AppendChain(rest)
	head.Free()
	if rest.CountChainElements() != 3 || rest.Prev().Next() != rest || string(rest.CopyOut()) != "abcdef" {
		t.Fatalf("the chain behind a freed head has %d elements and reads %q", rest.CountChainElements(), rest.CopyOut())
	}
}

func TestFreeBelowZeroPanics(t *testing.T) {
	p := NewPool(16)
	b := p.Get(1)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Free of a once-held element did not panic")
		}
	}()
	b.Free()
}

// Elements no pool made - New, Wrap, the rest of a Split, and a Get above
// the pool's class - have no holders to count: Retain and Free do nothing,
// any number of times.
func TestFreeOfPlainElementsIsNoOp(t *testing.T) {
	p := NewPool(16)
	big := p.Get(17)
	if big.Capacity() != 17 || big.Length() != 0 || p.Outstanding() != 0 {
		t.Fatalf("oversize Get: capacity %d, %d out", big.Capacity(), p.Outstanding())
	}
	pooled := p.Get(16)
	pooled.Append(16)
	view := pooled.Split(8, nil)
	for _, b := range []*IOBuf{big, New(8), Wrap([]byte("abc")), view} {
		b.Append(b.Tailroom())
		want := string(b.Data())
		b.Retain()
		b.Free()
		b.Free()
		b.Free()
		if string(b.Data()) != want || len(p.free) != 0 {
			t.Fatalf("Free touched a plain element (%q, %d in the pool)", b.Data(), len(p.free))
		}
	}
}

// A view descriptor owns no bytes: View lends it data, holders count as
// for any pooled element, and the last Free returns the descriptor alone -
// the lent bytes keep their contents and the descriptor lets go of them.
// On a nil pool View is Wrap.
func TestViewDescriptorReturnsWithoutItsBytes(t *testing.T) {
	views := NewPool(0)
	lent := []byte("a stored value, lent")
	v := views.View(lent[2:8])
	if string(v.Data()) != "stored" || views.Outstanding() != 1 {
		t.Fatalf("View: %q, %d out", v.Data(), views.Outstanding())
	}
	v.Retain()
	v.Free()
	if string(v.Data()) != "stored" || views.Outstanding() != 1 {
		t.Fatalf("after one of two holders let go: %q, %d out", v.Data(), views.Outstanding())
	}
	v.Free()
	if string(lent) != "a stored value, lent" || views.Outstanding() != 0 || len(views.free) != 1 {
		t.Fatalf("after the last Free: lent bytes %q, %d out, %d free", lent, views.Outstanding(), len(views.free))
	}
	if v.Capacity() != 0 || v.Length() != 0 {
		t.Fatalf("a freed view still covers %d bytes of %d", v.Length(), v.Capacity())
	}
	if again := views.View(lent[:1]); again != v || string(again.Data()) != "a" {
		t.Fatal("the freed descriptor was not the next one handed out")
	}
	plain := (*Pool)(nil).View(lent)
	plain.Free()
	if string(plain.Data()) != string(lent) {
		t.Fatal("a View from no pool is not a plain Wrap")
	}
}

// A view over a pool-born element's bytes - a Split cut with a pool,
// ViewOf of the element or of such a view - is one of the element's
// holders until its own last Free: the pieces of a cut message come home
// in either order, the element with the last of them, and no piece reads
// recycled bytes meanwhile.
func TestViewOfPooledBytesHoldsTheirElement(t *testing.T) {
	for _, elementFirst := range []bool{true, false} {
		p, views := NewPool(16), NewPool(0)
		e := p.Get(16)
		copy(e.Append(16), "0123456789abcdef")
		rest := e.Split(10, views)
		again := views.ViewOf(rest)
		if string(rest.Data()) != "abcdef" || string(again.Data()) != "abcdef" || e.Capacity() != 10 {
			t.Fatalf("cut: %q | %q, %q; the element keeps %d bytes", e.Data(), rest.Data(), again.Data(), e.Capacity())
		}
		first, second, left, viewsLeft := e, rest, "abcdef", 1
		if !elementFirst {
			first, second, left, viewsLeft = rest, e, "0123456789", 0
		}
		first.Free()
		again.Free()
		if p.Outstanding() != 1 || views.Outstanding() != viewsLeft {
			t.Fatalf("one piece left: %d elements, %d views out", p.Outstanding(), views.Outstanding())
		}
		if string(second.Data()) != left {
			t.Fatalf("the piece left reads %q", second.Data())
		}
		second.Free()
		if p.Outstanding() != 0 || views.Outstanding() != 0 || len(p.free) != 1 || len(views.free) != 2 {
			t.Fatalf("all freed: %d elements, %d views out", p.Outstanding(), views.Outstanding())
		}
		if again := p.Get(16); again != e || again.Capacity() != 16 {
			t.Fatal("the element did not come back whole")
		}
	}
	// A view over bytes no pool made holds nothing, and on a nil pool
	// ViewOf is Wrap.
	views := NewPool(0)
	lent := views.ViewOf(Wrap([]byte("lent")))
	plain := (*Pool)(nil).ViewOf(lent)
	lent.Free()
	plain.Free()
	if views.Outstanding() != 0 || string(plain.Data()) != "lent" {
		t.Fatalf("%d views out, plain view reads %q", views.Outstanding(), plain.Data())
	}
}

// Copy fills elements of the pool's class front to back, one chain with
// one holder of each; from a nil pool it is one plain element.
func TestPoolCopyFillsElementsOfItsClass(t *testing.T) {
	p := NewPool(8)
	src := chainOf([]byte("a chain of twenty-one"), 3, 15)
	cp := p.Copy(src)
	if string(cp.CopyOut()) != "a chain of twenty-one" || cp.CountChainElements() != 3 || p.Outstanding() != 3 {
		t.Fatalf("copy %q in %d elements, %d out", cp.CopyOut(), cp.CountChainElements(), p.Outstanding())
	}
	if cp.Length() != 8 || cp.Next().Length() != 8 || cp.Prev().Length() != 5 {
		t.Fatalf("element lengths %d, %d, %d", cp.Length(), cp.Next().Length(), cp.Prev().Length())
	}
	cp.Free()
	if p.Outstanding() != 0 {
		t.Fatalf("%d out after the copy's Free", p.Outstanding())
	}
	flat := (*Pool)(nil).Copy(src)
	if flat.IsChained() || string(flat.Data()) != "a chain of twenty-one" || flat.Tailroom() != 0 {
		t.Fatalf("copy from no pool: %q, chained %v", flat.Data(), flat.IsChained())
	}
}

// Frames keeps each record whole in one element: records share an element
// while it has room, one that does not fit starts the next, a lent view
// ends the element before it, and a record above the class gets a plain
// element of its own.
func TestFramesKeepEachRecordWhole(t *testing.T) {
	p, views := NewPool(8), NewPool(0)
	f := Frames{Pool: p}
	if f.Take() != nil {
		t.Fatal("an empty message is not nil")
	}
	for _, rec := range []string{"abc", "defg", "hi", "<lent>", "jk", "0123456789"} {
		if rec == "<lent>" {
			f.Link(views.View([]byte(rec)))
			continue
		}
		copy(f.Next(len(rec)), rec)
	}
	msg := f.Take()
	var got []string
	msg.ForEach(func(e *IOBuf) { got = append(got, string(e.Data())) })
	if want := []string{"abcdefg", "hi", "<lent>", "jk", "0123456789"}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("elements %q, want %q", got, want)
	}
	if p.Outstanding() != 3 || f.Take() != nil {
		t.Fatalf("%d elements out, want 3 (the long record is plain)", p.Outstanding())
	}
	msg.Free()
	if p.Outstanding() != 0 || views.Outstanding() != 0 {
		t.Fatalf("after Free: %d elements, %d views out", p.Outstanding(), views.Outstanding())
	}
}

// Retain and Free act on every element of a chain: each pool-born element
// gains and loses a holder, whichever pool made it, and a plain one is left
// alone. The frame a stack sends - a head element, a view Split cut, the
// application's own descriptor - comes home whole at its last Free.
func TestFreeWalksTheChain(t *testing.T) {
	heads, views := NewPool(16), NewPool(0)
	msg := []byte("headerpayload-bytes")
	frame := heads.Get(16)
	copy(frame.Append(6), msg)
	payload := chainOf(msg[6:], 7)
	if rest := payload.Split(3, views); rest == nil || rest.Next() == rest {
		t.Fatal("the split did not cut inside the first element")
	} else {
		frame.AppendChain(rest)
	}
	frame.Retain()
	frame.Free()
	if heads.Outstanding() != 1 || views.Outstanding() != 1 || frame.CountChainElements() != 3 {
		t.Fatalf("after one of two holders let go: %d heads, %d views out, %d elements", heads.Outstanding(), views.Outstanding(), frame.CountChainElements())
	}
	plain := frame.Prev()
	frame.Free()
	if heads.Outstanding() != 0 || views.Outstanding() != 0 {
		t.Fatalf("after the last Free: %d heads, %d views out", heads.Outstanding(), views.Outstanding())
	}
	if plain.IsChained() || string(plain.Data()) != "-bytes" || string(payload.Data()) != "pay" {
		t.Fatalf("the application's descriptors changed: %q, %q", plain.Data(), payload.Data())
	}
}

// Free is optional: the pool keeps no reference to an element it handed
// out, so one that is dropped without a Free is collected.
func TestNeverFreedElementIsCollected(t *testing.T) {
	p := NewPool(32)
	p.Get(32).Free() // the free list has had a slot in use
	dropped := weak.Make(p.Get(32))
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("an element dropped without Free is still reachable")
	}
	if p.Outstanding() != 1 {
		t.Fatalf("%d out; a dropped element stays counted", p.Outstanding())
	}
}

// Wrap and Split stay in the 64-byte size class with the pool's fields in
// the descriptor, and a warm pool allocates nothing - views, cuts and the
// holds a cut takes on a pool-born element included.
func TestDescriptorSizeAndWarmPool(t *testing.T) {
	if size := unsafe.Sizeof(IOBuf{}); size > 64 {
		t.Fatalf("an IOBuf descriptor is %d bytes, want at most 64", size)
	}
	p, views := NewPool(1536), NewPool(0)
	lent := make([]byte, 3000)
	cycle := func() {
		a, b := p.Get(1500), p.Get(54)
		b.AppendChain(views.View(lent))
		a.Retain()
		a.Free()
		b.Free()
		a.Free()
		v := views.View(lent)
		v.Split(1460, views).Free()
		v.Free()
		e := p.Get(1536)
		e.Append(1536)
		rest := e.Split(1000, views)
		views.ViewOf(rest).Free()
		e.Free()
		rest.Free()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Get/View/Split/Retain/Free on warm pools allocated %.0f objects, want 0", n)
	}
}

// A carved pool makes its elements a slab at a time, with one allocation
// of bytes and one of descriptors: each element's bytes are its own class
// long and no Append reaches a neighbour's, and a freed element comes
// back as any other does, before the slab's next is cut.
func TestCarvedPoolMakesASlabAtATime(t *testing.T) {
	var p *Pool
	got := make([]*IOBuf, 4)
	if allocs := testing.AllocsPerRun(10, func() {
		p = NewCarvedPool(64, 8, 4)
		for i := range got {
			got[i] = p.Get(64)
		}
	}); allocs > 3 {
		t.Fatalf("a pool and a slab's worth of Gets allocated %.0f objects, want 3: the pool, the slab's bytes and its descriptors", allocs)
	}
	if p.Outstanding() != 4 || len(p.free) != 0 {
		t.Fatalf("after a slab's worth of Gets: %d out, %d free", p.Outstanding(), len(p.free))
	}
	for i, b := range got {
		if b.Capacity() != 64 || b.Tailroom() != 64 || cap(b.buf) != 64 {
			t.Fatalf("element %d: capacity %d, room to %d", i, b.Capacity(), cap(b.buf))
		}
		for j := range b.Append(64) {
			b.Data()[j] = byte(i)
		}
	}
	for i, b := range got {
		if strings.Count(string(b.Data()), string(rune(i))) != 64 {
			t.Fatalf("element %d's bytes were written through another", i)
		}
		b.Free()
	}
	if p.Outstanding() != 0 || len(p.free) != 4 || p.Get(10) != got[3] {
		t.Fatalf("after every Free: %d out, %d free, and the last freed not handed out next", p.Outstanding(), len(p.free))
	}
}
