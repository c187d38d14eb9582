package iobuf

import "fmt"

// Pool recycles elements of one capacity: the packet memory of one NIC or
// one interface. It is single-threaded, as everything on one simulation
// kernel is, and belongs to the value that uses it, never to a package:
// kernels run in parallel. It holds only the elements that are back, so it
// grows to the most its user ever had out at once and an element that is
// never freed is the collector's.
//
// A pool of class 0 makes view descriptors: elements that own no bytes and
// are handed out by View over someone else's.
type Pool struct {
	class int      // capacity of every element the pool makes
	free  []*IOBuf // elements with no holder
	out   int      // handed out and not yet back
}

// NewPool makes an empty pool of elements with the given capacity.
func NewPool(class int) *Pool { return &Pool{class: class} }

// take hands out an element with one holder, recycled if one is back.
func (p *Pool) take() *IOBuf {
	var b *IOBuf
	if last := len(p.free) - 1; last >= 0 {
		b, p.free[last], p.free = p.free[last], nil, p.free[:last]
		if debugFree {
			checkPoison(b.buf)
		}
	} else {
		b = New(p.class)
		b.pool = p
	}
	b.holders = 1
	p.out++
	return b
}

// Get returns an element with an empty view at offset 0, capacity at least
// n and one holder, the caller. Its bytes are not zeroed. A request above
// the pool's class is served by New: a plain element, which Free ignores.
func (p *Pool) Get(n int) *IOBuf {
	if n > p.class {
		return New(n)
	}
	return p.take()
}

// View returns a descriptor from a pool of class 0 whose view covers data,
// with one holder, the caller. The descriptor does not own data: its last
// Free returns the descriptor alone and lets go of data, which is neither
// recycled, reset nor poisoned, so it may be bytes lent by anyone - a
// stored value, an application's message, another element's buffer. On a
// nil pool View is Wrap.
func (p *Pool) View(data []byte) *IOBuf {
	if p == nil {
		return Wrap(data)
	}
	if p.class != 0 {
		panic(fmt.Sprintf("iobuf: View from a pool of class %d", p.class))
	}
	b := p.take()
	b.buf, b.length = data, len(data)
	return b
}

// Outstanding reports the elements handed out and not yet back: those
// still held, and those dropped without a Free.
func (p *Pool) Outstanding() int { return p.out }

// Retain adds a holder to every pool-born element of the chain, for a
// structure that keeps the chain past the call it was lent for.
func (b *IOBuf) Retain() {
	for e := b; ; {
		if e.pool != nil {
			e.holders++
		}
		if e = e.next; e == b {
			return
		}
	}
}

// Free drops one holder of every pool-born element of the chain. An
// element's last one unlinks it from the chain, resets its view and
// returns it to its pool - a view descriptor alone, any other element with
// its bytes; from then on nothing may read or write the element, nor the
// bytes or a view of the bytes of one that owned them. Freeing more often
// than an element was held panics.
func (b *IOBuf) Free() {
	for e := b.next; e != b; {
		next := e.next
		e.drop()
		e = next
	}
	b.drop()
}

// drop lets go of one holder of this element only.
func (b *IOBuf) drop() {
	p := b.pool
	if p == nil {
		return
	}
	if b.holders--; b.holders > 0 {
		return
	}
	if b.holders < 0 {
		panic(fmt.Sprintf("iobuf: Free of an element with no holder (%d)", b.holders))
	}
	b.Unlink()
	if p.class == 0 {
		b.buf = nil // a view's bytes are not the pool's
	} else {
		b.buf = b.buf[:cap(b.buf)] // a Split may have cut it
		if debugFree {
			poison(b.buf)
		}
	}
	b.off, b.length = 0, 0
	p.free = append(p.free, b)
	p.out--
}

// poisonByte fills a freed element under the iobufdebug build tag.
const poisonByte = 0xDB

func poison(buf []byte) {
	for i := range buf {
		buf[i] = poisonByte
	}
}

// checkPoison panics if a freed element was written while in the pool.
func checkPoison(buf []byte) {
	for i, c := range buf {
		if c != poisonByte {
			panic(fmt.Sprintf("iobuf: byte %d of a freed element was written (%#x)", i, c))
		}
	}
}
