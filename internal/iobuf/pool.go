package iobuf

import "fmt"

// Pool recycles elements of one capacity: the packet memory of one NIC or
// one interface. It is single-threaded, as everything on one simulation
// kernel is, and belongs to the value that uses it, never to a package:
// kernels run in parallel. It holds only the elements that are back, so it
// grows to the most its user ever had out at once and an element that is
// never freed is the collector's.
type Pool struct {
	class int      // capacity of every element the pool makes
	free  []*IOBuf // elements with no holder
	out   int      // handed out by Get and not yet back
}

// NewPool makes an empty pool of elements with the given capacity.
func NewPool(class int) *Pool { return &Pool{class: class} }

// Get returns an element with an empty view at offset 0, capacity at least
// n and one holder, the caller. Its bytes are not zeroed. A request above
// the pool's class is served by New: a plain element, which Free ignores.
func (p *Pool) Get(n int) *IOBuf {
	if n > p.class {
		return New(n)
	}
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

// Outstanding reports the elements handed out and not yet back: those
// still held, and those dropped without a Free.
func (p *Pool) Outstanding() int { return p.out }

// Retain adds a holder to a pool-born element, for a structure that keeps
// the element past the call it was lent for.
func (b *IOBuf) Retain() {
	if b.pool != nil {
		b.holders++
	}
}

// Free drops one holder of a pool-born element. The last one unlinks the
// element from its chain, resets its view and returns it, descriptor and
// bytes, to its pool; from then on nothing may read or write it, its bytes
// or a view of them. Freeing more often than the element was held panics.
func (b *IOBuf) Free() {
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
	b.buf = b.buf[:cap(b.buf)] // a Split may have cut it
	b.off, b.length = 0, 0
	if debugFree {
		poison(b.buf)
	}
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
