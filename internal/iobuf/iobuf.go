// Package iobuf implements EbbRT's IOBuf primitive (paper §3.6): a
// descriptor that manages ownership of a region of memory plus a view of a
// portion of it, chainable into scatter/gather lists.
//
// IOBufs carry packet data from the device driver through the network stack
// to the application without copying: the stack adjusts the view (Advance,
// Retreat, TrimEnd) to strip or expose headers in place, and transmit paths
// hand chains of IOBufs to the device.
//
// Ownership has three parts. A descriptor (one IOBuf element) is uniquely
// owned - it is moved, never shared, mirroring the C++ unique_ptr
// discipline - so only its owner adjusts the view or relinks it. The
// backing bytes may be shared: Split, Wrap and Pool.View make further
// descriptors over the same bytes. What makes that safe is a rule, not a
// refcount: bytes handed to a send path (TcpPcb.Send, appnet.Conn.Send) are
// immutable from then on. The sender may keep reading them - a stored value
// goes out to any number of readers - but a caller that wants to write
// again allocates afresh.
//
// The third part is the per-packet memory of the data path, and the
// stored values an application lends to it, made by a Pool and counted:
//
//	element          made by                         its bytes
//	receive buffer   the NIC's Pool, Get             the element's, recycled with it
//	header element   the interface's Pool, Get       the element's, recycled with it
//	payload element  the interface's Pool, Get/Copy  the element's, recycled with it
//	view descriptor  the interface's Pool, View      a pool-born element's, held; others' lent, left alone
//	stored value     a server's bounded Pool, Get    the element's (a slab's, if carved), recycled with it
//
// Get or View hands an element to its first holder, Retain adds one and
// Free drops one - on every element of the chain - and an element's last
// Free sends it back to its pool to be handed out again: a view descriptor
// alone, letting go of the bytes it covered, any other element with its
// bytes. Free is optional - an element nobody frees is ordinary garbage and
// the pool forgets it - so the only bug is an early Free: reading or
// writing a pool-born element after one's own hold is gone, or the bytes of
// one that owns them, through any view. A view descriptor over a pool-born
// element's bytes - ViewOf, a Split cut with a pool - is one of that
// element's holders until the view's own last Free, so a message cut
// anywhere comes home whichever piece is freed first; bytes no pool made
// are only lent to it. Elements no pool made - New, Wrap, the cut of a
// Split without a pool - have no holders and hold nothing, and Retain and
// Free pass them by. Building with -tags iobufdebug makes the rule
// mechanical: the last Free overwrites the bytes an element owns with 0xDB
// and Get checks that they still are, so a use after free breaks a
// byte-exact test and a write after free panics; the bytes a view
// descriptor was lent are never touched.
package iobuf

import (
	"encoding/binary"
	"fmt"
	"math"
)

// IOBuf is one element of a circular doubly-linked chain. The zero value is
// not usable; construct with New, FromBytes, Wrap, or a Pool. The view is
// held narrow (off and holders in 32 bits) so that a descriptor stays in
// the 64-byte size class with the pool's two fields aboard.
type IOBuf struct {
	buf     []byte // backing storage (capacity)
	length  int    // length of the view
	next    *IOBuf
	prev    *IOBuf
	home    *home // of a pool-born element, or nil
	off     int32 // start of the view within buf
	holders int32 // of a pool-born element; it is on home.pool.free at 0
}

// home is where a pool-born element goes back to and, for a view
// descriptor, the pool-born element whose bytes it covers. Every element
// that owns its bytes shares its pool's; each view descriptor has its own,
// made with it and recycled with it, which keeps the owner out of the
// descriptor.
type home struct {
	pool  *Pool
	owner *IOBuf // held by a view from View until the view's last Free
}

// element makes a singleton over buf with an empty view at offset 0.
func element(buf []byte) *IOBuf {
	if len(buf) > math.MaxInt32 {
		panic(fmt.Sprintf("iobuf: %d-byte buffer", len(buf)))
	}
	b := &IOBuf{buf: buf}
	b.next = b
	b.prev = b
	return b
}

// New allocates a buffer with the given capacity and an empty view starting
// at offset 0. Use Append to extend the view as data is produced.
func New(capacity int) *IOBuf { return element(make([]byte, capacity)) }

// FromBytes copies data into a fresh buffer whose view covers it entirely.
func FromBytes(data []byte) *IOBuf {
	b := New(len(data))
	copy(b.buf, data)
	b.length = len(data)
	return b
}

// Wrap takes ownership of data without copying; the view covers all of it.
func Wrap(data []byte) *IOBuf {
	b := element(data)
	b.length = len(data)
	return b
}

// Data returns the current view. The slice aliases the buffer; the network
// stack and applications read and write through it zero-copy.
func (b *IOBuf) Data() []byte { return b.buf[b.off : int(b.off)+b.length] }

// Length reports the view length of this element only.
func (b *IOBuf) Length() int { return b.length }

// Capacity reports the total backing capacity of this element.
func (b *IOBuf) Capacity() int { return len(b.buf) }

// Headroom reports bytes available before the view, for prepending headers.
func (b *IOBuf) Headroom() int { return int(b.off) }

// Tailroom reports bytes available after the view, for appending data.
func (b *IOBuf) Tailroom() int { return len(b.buf) - int(b.off) - b.length }

// Advance moves the view start forward n bytes, shrinking the view; used to
// strip a header that has been consumed. It panics if n exceeds the view.
func (b *IOBuf) Advance(n int) {
	if n < 0 || n > b.length {
		panic(fmt.Sprintf("iobuf: Advance(%d) with view %d", n, b.length))
	}
	b.off += int32(n)
	b.length -= n
}

// Retreat moves the view start backward n bytes, exposing headroom; used to
// prepend a header in place. It panics if n exceeds the headroom.
func (b *IOBuf) Retreat(n int) {
	if n < 0 || n > int(b.off) {
		panic(fmt.Sprintf("iobuf: Retreat(%d) with headroom %d", n, b.off))
	}
	b.off -= int32(n)
	b.length += n
}

// Append extends the view n bytes into the tailroom and returns the newly
// exposed region for the producer to fill. It panics on overflow.
func (b *IOBuf) Append(n int) []byte {
	if n < 0 || n > b.Tailroom() {
		panic(fmt.Sprintf("iobuf: Append(%d) with tailroom %d", n, b.Tailroom()))
	}
	start := int(b.off) + b.length
	b.length += n
	return b.buf[start : start+n]
}

// TrimEnd shrinks the view by n bytes at the tail.
func (b *IOBuf) TrimEnd(n int) {
	if n < 0 || n > b.length {
		panic(fmt.Sprintf("iobuf: TrimEnd(%d) with view %d", n, b.length))
	}
	b.length -= n
}

// Next returns the following element of the chain (itself for a singleton).
func (b *IOBuf) Next() *IOBuf { return b.next }

// Prev returns the preceding element of the chain.
func (b *IOBuf) Prev() *IOBuf { return b.prev }

// IsChained reports whether the buffer is part of a multi-element chain.
func (b *IOBuf) IsChained() bool { return b.next != b }

// AppendChain links other's chain to the end of b's chain. After the call,
// iterating from b reaches every element of both chains. other must not
// already share a chain with b.
func (b *IOBuf) AppendChain(other *IOBuf) {
	if other == nil {
		return
	}
	bTail := b.prev
	oTail := other.prev
	bTail.next = other
	other.prev = bTail
	oTail.next = b
	b.prev = oTail
}

// Unlink removes b from its chain and returns the remainder's head (the
// element that followed b), or nil if b was a singleton.
func (b *IOBuf) Unlink() *IOBuf {
	if !b.IsChained() {
		return nil
	}
	next := b.next
	b.prev.next = b.next
	b.next.prev = b.prev
	b.next = b
	b.prev = b
	return next
}

// CountChainElements reports the number of elements in the chain.
func (b *IOBuf) CountChainElements() int {
	n := 1
	for cur := b.next; cur != b; cur = cur.next {
		n++
	}
	return n
}

// ComputeChainDataLength reports the total view length across the chain.
func (b *IOBuf) ComputeChainDataLength() int {
	total := b.length
	for cur := b.next; cur != b; cur = cur.next {
		total += cur.length
	}
	return total
}

// Split cuts the chain after its first n bytes (n > 0) and returns the
// rest as a chain of its own, or nil when the chain holds no more than n:
// how a send path segments a message without touching its bytes.
// Descriptors are moved; when the cut falls inside an element the rest
// starts with one new descriptor over the same backing bytes - from views,
// holding the pool-born element those bytes belong to as ViewOf does, or
// a plain one holding nothing if views is nil - and the cut element gives
// up its tailroom so that neither side can grow into the other. A send
// path cuts with a pool: either side may be freed first.
func (b *IOBuf) Split(n int, views *Pool) *IOBuf {
	if n <= 0 {
		panic(fmt.Sprintf("iobuf: Split(%d)", n))
	}
	cur := b
	for n >= cur.length {
		n -= cur.length
		if cur = cur.next; cur == b {
			return nil
		}
	}
	rest := cur
	if n > 0 {
		rest = views.view(cur.Data()[n:], cur)
		cur.buf = cur.buf[:int(cur.off)+n]
		cur.length = n
		rest.next, rest.prev = cur.next, cur
		cur.next.prev = rest
		cur.next = rest
	}
	tail, cut := b.prev, rest.prev
	cut.next, b.prev = b, cut
	tail.next, rest.prev = rest, tail
	return rest
}

// AppendTo appends the whole chain's data to dst and returns the extended
// slice: the way a stream parser accumulates a record that spans
// deliveries.
func (b *IOBuf) AppendTo(dst []byte) []byte {
	dst = append(dst, b.Data()...)
	for cur := b.next; cur != b; cur = cur.next {
		dst = append(dst, cur.Data()...)
	}
	return dst
}

// CopyOut copies the whole chain's data into a single fresh slice. The
// data path does not call it (copyout_test.go at the repository root
// lists the callers): it is for cold paths that want one flat packet. A
// model that charges for a copy - the GPOS socket buffers - copies into
// recycled memory with Pool.Copy.
func (b *IOBuf) CopyOut() []byte {
	return b.AppendTo(make([]byte, 0, b.ComputeChainDataLength()))
}

// ForEach invokes fn on every element of the chain in order.
func (b *IOBuf) ForEach(fn func(*IOBuf)) {
	fn(b)
	for cur := b.next; cur != b; cur = cur.next {
		fn(cur)
	}
}

// DataPointer is a cursor over a chain, used to parse protocol headers that
// may straddle element boundaries. All multi-byte reads are big-endian
// (network byte order).
type DataPointer struct {
	head *IOBuf
	cur  *IOBuf
	pos  int  // position within cur's view
	done bool // cur has wrapped past the tail
}

// Reader returns a cursor positioned at the start of the chain.
func (b *IOBuf) Reader() *DataPointer { return &DataPointer{head: b, cur: b} }

// Remaining reports the bytes left between the cursor and the chain end.
func (p *DataPointer) Remaining() int {
	if p.done {
		return 0
	}
	n := p.cur.Length() - p.pos
	for cur := p.cur.next; cur != p.head; cur = cur.next {
		n += cur.Length()
	}
	return n
}

func (p *DataPointer) advanceElement() bool {
	for {
		if p.cur.next == p.head {
			p.done = true
			return false
		}
		p.cur = p.cur.next
		p.pos = 0
		if p.cur.Length() > 0 {
			return true
		}
	}
}

// ReadByte consumes one byte.
func (p *DataPointer) ReadByte() (byte, error) {
	for !p.done && p.pos >= p.cur.Length() {
		if !p.advanceElement() {
			break
		}
	}
	if p.done || p.pos >= p.cur.Length() {
		return 0, fmt.Errorf("iobuf: read past end of chain")
	}
	c := p.cur.Data()[p.pos]
	p.pos++
	return c, nil
}

// ReadBytes consumes n bytes. When the range lies within one element the
// returned slice aliases the buffer (zero-copy); otherwise it is assembled
// element by element. A chain shorter than n leaves the cursor where it was.
func (p *DataPointer) ReadBytes(n int) ([]byte, error) {
	for !p.done && p.pos >= p.cur.Length() && n > 0 {
		if !p.advanceElement() {
			break
		}
	}
	if n == 0 {
		return nil, nil
	}
	if !p.done && p.cur.Length()-p.pos >= n {
		out := p.cur.Data()[p.pos : p.pos+n]
		p.pos += n
		return out, nil
	}
	if p.Remaining() < n {
		return nil, fmt.Errorf("iobuf: read past end of chain")
	}
	out := make([]byte, 0, n)
	for {
		avail := p.cur.Data()[p.pos:]
		if len(avail) >= n-len(out) {
			p.pos += n - len(out)
			return append(out, avail[:n-len(out)]...), nil
		}
		out = append(out, avail...)
		p.advanceElement()
	}
}

// Skip consumes n bytes without returning them.
func (p *DataPointer) Skip(n int) error {
	for n > 0 {
		if p.done {
			return fmt.Errorf("iobuf: skip past end of chain")
		}
		avail := p.cur.Length() - p.pos
		if avail >= n {
			p.pos += n
			return nil
		}
		n -= avail
		p.pos = p.cur.Length()
		if !p.advanceElement() {
			return fmt.Errorf("iobuf: skip past end of chain")
		}
	}
	return nil
}

// ReadUint16 consumes a big-endian uint16.
func (p *DataPointer) ReadUint16() (uint16, error) {
	b, err := p.ReadBytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

// ReadUint32 consumes a big-endian uint32.
func (p *DataPointer) ReadUint32() (uint32, error) {
	b, err := p.ReadBytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// ReadUint64 consumes a big-endian uint64.
func (p *DataPointer) ReadUint64() (uint64, error) {
	b, err := p.ReadBytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}
