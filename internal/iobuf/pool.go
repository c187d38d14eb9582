package iobuf

import (
	"fmt"
	"math"
)

// Pool recycles elements of one capacity: the packet memory of one NIC or
// one interface, the stored values of one server. It is single-threaded,
// as everything on one simulation kernel is, and belongs to the value that
// uses it, never to a package: kernels run in parallel. It holds only the
// elements that are back, so it grows to the most its user ever had out at
// once, or to its keep bound, and an element that is never freed, or freed
// while the bound's worth are back, is the collector's.
//
// A pool of class 0 makes view descriptors: elements that own no bytes and
// are handed out by View and ViewOf over someone else's.
type Pool struct {
	class int      // capacity of every element the pool makes
	keep  int      // the most elements free may hold
	slab  int      // elements made at once when none is back (cut)
	rest  []IOBuf  // the descriptors of the slab being cut not yet cut
	mem   []byte   // and its bytes
	free  []*IOBuf // elements with no holder
	out   int      // handed out and not yet back
	self  home     // the home of every element that owns its bytes
}

// NewPool makes an empty pool of elements with the given capacity, which
// keeps every element that comes back.
func NewPool(class int) *Pool { return NewBoundedPool(class, math.MaxInt) }

// NewBoundedPool makes an empty pool that keeps at most keep elements
// back: one whose last Free finds keep already there is left to the
// collector. For memory whose use comes in bursts of many sizes - stored
// values - where a pool that kept every element would keep a burst's
// worth of each size for good.
func NewBoundedPool(class, keep int) *Pool { return NewCarvedPool(class, keep, 1) }

// NewCarvedPool is NewBoundedPool for a pool of class above 0 that makes
// its elements slab at a time, when a Get finds none back: their bytes
// cut from one allocation and their descriptors from another, as a slab
// allocator carves its pages. A burst of Gets - the chunks of a stored
// value - then costs two allocations a slab instead of two an element,
// and an element's bytes stay allocated while any element of its slab is
// reachable.
func NewCarvedPool(class, keep, slab int) *Pool {
	p := &Pool{class: class, keep: keep, slab: slab}
	p.self.pool = p
	return p
}

// cut makes a new element out of the slab being cut, or a new slab.
func (p *Pool) cut() *IOBuf {
	if len(p.rest) == 0 {
		p.rest, p.mem = make([]IOBuf, p.slab), make([]byte, p.slab*p.class)
	}
	b := &p.rest[0]
	b.buf, b.next, b.prev, b.home = p.mem[:p.class:p.class], b, b, &p.self
	p.rest, p.mem = p.rest[1:], p.mem[p.class:]
	return b
}

// take hands out an element with one holder, recycled if one is back.
func (p *Pool) take() *IOBuf {
	var b *IOBuf
	if last := len(p.free) - 1; last >= 0 {
		b, p.free[last], p.free = p.free[last], nil, p.free[:last]
		if debugFree {
			checkPoison(b.buf)
		}
	} else if p.slab > 1 {
		b = p.cut()
	} else {
		b = New(p.class)
		b.home = &p.self
		if p.class == 0 {
			b.home = &home{pool: p}
		}
	}
	b.holders = 1
	p.out++
	return b
}

// Get returns an element with an empty view at offset 0, capacity at least
// n and one holder, the caller. Its bytes are not zeroed. A request above
// the pool's class, or from a nil pool, is served by New: a plain element,
// which Free ignores.
func (p *Pool) Get(n int) *IOBuf {
	if p == nil || n > p.class {
		return New(n)
	}
	return p.take()
}

// View returns a descriptor from a pool of class 0 whose view covers data,
// with one holder, the caller. The descriptor does not own data: its last
// Free returns the descriptor alone and lets go of data, which is neither
// recycled, reset nor poisoned, so it may be bytes lent by anyone - a
// stored value, an application's message. On a nil pool View is Wrap.
func (p *Pool) View(data []byte) *IOBuf { return p.view(data, nil) }

// ViewOf is View over e's view, holding what e's bytes belong to: e if it
// is a pool-born element that owns them, the element a view from ViewOf or
// a Split cut holds if e is one, nothing otherwise. The element stays out
// of its pool until the descriptor's last Free, however e fares - how a
// retransmission puts new descriptors over bytes an acknowledgment may
// free meanwhile.
func (p *Pool) ViewOf(e *IOBuf) *IOBuf { return p.view(e.Data(), e) }

func (p *Pool) view(data []byte, of *IOBuf) *IOBuf {
	if p == nil {
		return Wrap(data)
	}
	if p.class != 0 {
		panic(fmt.Sprintf("iobuf: View from a pool of class %d", p.class))
	}
	b := p.take()
	b.buf, b.length = data, len(data)
	if o := of.bytesOwner(); o != nil {
		o.holders++
		b.home.owner = o
	}
	return b
}

// bytesOwner is the pool-born element whose bytes b's view covers, if one
// does: b itself, or the element a view holds.
func (b *IOBuf) bytesOwner() *IOBuf {
	if b == nil || b.home == nil {
		return nil
	}
	if b.home.pool.class != 0 {
		return b
	}
	return b.home.owner
}

// Copy copies the bytes of the chain src into elements from p, each filled
// to the pool's class, and returns them as a chain with one holder, the
// caller: how a model that charges for a copy - the GPOS socket buffers -
// makes it into recycled memory. From a nil pool, or one of class 0, the
// copy is one plain element.
func (p *Pool) Copy(src *IOBuf) *IOBuf {
	left := src.ComputeChainDataLength()
	class := left
	if p != nil && p.class > 0 {
		class = p.class
	}
	head := p.Get(min(left, class))
	dst := head
	for e := src; ; {
		for data := e.Data(); len(data) > 0; {
			if dst.Tailroom() == 0 {
				dst = p.Get(min(left, class))
				head.AppendChain(dst)
			}
			n := copy(dst.Append(min(len(data), dst.Tailroom())), data)
			data, left = data[n:], left-n
		}
		if e = e.next; e == src {
			return head
		}
	}
}

// Frames builds a message out of records written into elements from
// Pool: how an application writes what it sends into recycled memory. A
// record's head, from Next, stays whole in one element; a long value
// after it, from Write, may span elements. A head above the pool's class
// gets a plain element of its own, as does everything from a nil Pool.
type Frames struct {
	Pool  *Pool
	chain *IOBuf // nil until the message's first record
}

// Next returns n bytes for one record at the end of the message: in the
// last element while it has the room, else in a fresh one.
func (f *Frames) Next(n int) []byte {
	if f.chain == nil {
		f.chain = f.Pool.Get(n)
	} else if f.chain.prev.Tailroom() < n {
		f.chain.AppendChain(f.Pool.Get(n))
	}
	return f.chain.prev.Append(n)
}

// Write copies p to the end of the message: into the last element's
// tailroom, then into fresh elements from Pool, each filled to the
// pool's class.
func (f *Frames) Write(p []byte) {
	for len(p) > 0 {
		if f.chain == nil || f.chain.prev.Tailroom() == 0 {
			n := len(p)
			if f.Pool != nil && f.Pool.class > 0 {
				n = min(n, f.Pool.class)
			}
			f.Link(f.Pool.Get(n))
		}
		last := f.chain.prev
		p = p[copy(last.Append(min(len(p), last.Tailroom())), p):]
	}
}

// Link appends e to the message - a view of lent bytes between records,
// say. Records after it go into its tailroom, which a view has none of,
// or a fresh element.
func (f *Frames) Link(e *IOBuf) {
	if f.chain == nil {
		f.chain = e
	} else {
		f.chain.AppendChain(e)
	}
}

// Take hands the message over, nil if nothing was written, and starts the
// next.
func (f *Frames) Take() *IOBuf {
	chain := f.chain
	f.chain = nil
	return chain
}

// Outstanding reports the elements handed out and not yet back: those
// still held, and those dropped without a Free.
func (p *Pool) Outstanding() int { return p.out }

// Retain adds a holder to every pool-born element of the chain, for a
// structure that keeps the chain past the call it was lent for.
func (b *IOBuf) Retain() {
	for e := b; ; {
		if e.home != nil {
			e.holders++
		}
		if e = e.next; e == b {
			return
		}
	}
}

// Free drops one holder of every pool-born element of the chain. An
// element's last one unlinks it from the chain, resets its view and
// returns it to its pool - a view descriptor alone, dropping its hold on
// the element whose bytes it covered, any other element with its bytes;
// from then on nothing may read or write the element, nor the bytes or a
// view of the bytes of one that owned them. Freeing more often than an
// element was held panics.
func (b *IOBuf) Free() {
	for e := b.next; e != b; {
		next := e.next
		e.drop()
		e = next
	}
	b.drop()
}

// drop lets go of one holder of this element only. A view's last holder
// lets go of its owner too; the owner cannot be an element of the chain
// a Free is walking that the walk has yet to reach, since that chain holds
// it as well.
func (b *IOBuf) drop() {
	h := b.home
	if h == nil {
		return
	}
	if b.holders--; b.holders > 0 {
		return
	}
	if b.holders < 0 {
		panic(fmt.Sprintf("iobuf: Free of an element with no holder (%d)", b.holders))
	}
	b.Unlink()
	p := h.pool
	if p.class == 0 {
		b.buf = nil // a view's bytes are not the pool's
	} else {
		b.buf = b.buf[:cap(b.buf)] // a Split may have cut it
		if debugFree {
			poison(b.buf)
		}
	}
	b.off, b.length = 0, 0
	if len(p.free) < p.keep {
		p.free = append(p.free, b)
	}
	p.out--
	if o := h.owner; o != nil {
		h.owner = nil
		o.drop()
	}
}

// poisonByte fills a freed element under the iobufdebug build tag.
const poisonByte = 0xDB

func poison(buf []byte) {
	for i := range buf {
		buf[i] = poisonByte
	}
}

// Poison overwrites buf with the byte a freed element holds, under the
// iobufdebug build tag, and does nothing without it. A layer that lends
// bytes it owns calls it when it takes them back, so a holder that kept
// them past the loan reads the same poison as a freed receive buffer.
func Poison(buf []byte) {
	if debugFree {
		poison(buf)
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
