// Package mem implements the two lower layers of EbbRT's memory allocation
// subsystem (paper §3.4): a buddy page allocator with per-NUMA-node
// representatives and an SLQB-style slab allocator with per-core and
// per-node representatives. The memcached server's bounded store
// (memcached.BoundedStore) runs both; nothing here needs the paper's
// general-purpose malloc over graduated slab classes, so there is none.
//
// The allocators manage addresses within a simulated identity-mapped
// physical address space - the algorithms, metadata traffic, and
// synchronization behaviour are real; the backing bytes belong to the Go
// heap.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Addr is a simulated physical address. The identity mapping the paper
// relies on for zero-copy DMA means an Addr is usable directly as a device
// address.
type Addr uint64

// PageSize is the base page size (order-0 allocation unit).
const PageSize = 4096

// MaxOrder is the largest buddy order: order 11 spans 8 MiB, like Linux.
const MaxOrder = 11

// PageAllocator is the lowest-level allocator Ebb: power-of-two pages from
// per-NUMA-node buddy allocators. Each node representative owns a disjoint
// region of the address space and its own lock, so allocations on
// different nodes never contend.
type PageAllocator struct {
	nodes []*buddy
}

// NewPageAllocator creates an allocator with the given number of NUMA
// nodes, each owning bytesPerNode of address space (rounded down to a
// multiple of the largest buddy block).
func NewPageAllocator(numaNodes int, bytesPerNode uint64) *PageAllocator {
	if numaNodes <= 0 {
		panic("mem: need at least one NUMA node")
	}
	blockBytes := uint64(PageSize) << MaxOrder
	bytesPerNode -= bytesPerNode % blockBytes
	if bytesPerNode == 0 {
		panic("mem: bytesPerNode smaller than the largest buddy block")
	}
	p := &PageAllocator{}
	for n := 0; n < numaNodes; n++ {
		base := Addr(uint64(n) * bytesPerNode)
		p.nodes = append(p.nodes, newBuddy(base, bytesPerNode))
	}
	return p
}

// Nodes reports the NUMA node count.
func (p *PageAllocator) Nodes() int { return len(p.nodes) }

// Alloc allocates 2^order pages from the given node, falling back to other
// nodes when the preferred node is exhausted. ok is false when no node can
// satisfy the request.
func (p *PageAllocator) Alloc(order, node int) (Addr, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("mem: page order %d out of range", order))
	}
	n := len(p.nodes)
	for i := 0; i < n; i++ {
		b := p.nodes[(node+i)%n]
		if a, ok := b.alloc(order); ok {
			return a, true
		}
	}
	return 0, false
}

// Free returns 2^order pages to their owning node. Freeing an address that
// was not allocated (or double-freeing) panics: silent corruption of the
// free lists is the worst allocator failure mode.
func (p *PageAllocator) Free(a Addr, order int) {
	for _, b := range p.nodes {
		if a >= b.base && a < b.end {
			b.free(a, order)
			return
		}
	}
	panic(fmt.Sprintf("mem: free of address %#x outside any node", a))
}

// FreeBytes reports the total free space across nodes.
func (p *PageAllocator) FreeBytes() uint64 {
	var total uint64
	for _, b := range p.nodes {
		total += b.freeBytes
	}
	return total
}

// buddy is one NUMA node's buddy allocator. Each order's free blocks are
// a bitmap, one bit per block of that order, and an allocation takes the
// lowest free address: which block it gets depends only on the node's
// history, never on Go's map iteration order.
type buddy struct {
	mu        sync.Mutex
	base, end Addr
	bitmap    [MaxOrder + 1][]uint64
	nfree     [MaxOrder + 1]int
	allocated map[Addr]int // addr -> order, for double-free detection
	freeBytes uint64
}

func newBuddy(base Addr, bytes uint64) *buddy {
	b := &buddy{base: base, end: base + Addr(bytes), allocated: map[Addr]int{}, freeBytes: bytes}
	for o := range b.bitmap {
		blocks := bytes / uint64(orderBytes(o))
		b.bitmap[o] = make([]uint64, (blocks+63)/64)
	}
	blockBytes := Addr(PageSize) << MaxOrder
	for a := base; a < b.end; a += blockBytes {
		b.mark(MaxOrder, a, true)
	}
	return b
}

func orderBytes(order int) Addr { return Addr(PageSize) << order }

// bit locates the block of the given order at a in its order's bitmap.
func (b *buddy) bit(order int, a Addr) (word int, mask uint64) {
	i := uint64((a - b.base) / orderBytes(order))
	return int(i / 64), 1 << (i % 64)
}

func (b *buddy) isFree(order int, a Addr) bool {
	w, m := b.bit(order, a)
	return b.bitmap[order][w]&m != 0
}

// mark records the block as free or taken in its order's bitmap.
func (b *buddy) mark(order int, a Addr, free bool) {
	w, m := b.bit(order, a)
	if free {
		b.bitmap[order][w] |= m
		b.nfree[order]++
	} else {
		b.bitmap[order][w] &^= m
		b.nfree[order]--
	}
}

// lowest returns the lowest free block of a non-empty order.
func (b *buddy) lowest(order int) Addr {
	for w, word := range b.bitmap[order] {
		if word != 0 {
			return b.base + Addr(w*64+bits.TrailingZeros64(word))*orderBytes(order)
		}
	}
	panic("mem: free block count out of step with its bitmap")
}

func (b *buddy) alloc(order int) (Addr, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o := order
	for o <= MaxOrder && b.nfree[o] == 0 {
		o++
	}
	if o > MaxOrder {
		return 0, false
	}
	a := b.lowest(o)
	b.mark(o, a, false)
	// Split down to the requested order, returning the upper halves.
	for o > order {
		o--
		b.mark(o, a+orderBytes(o), true)
	}
	b.allocated[a] = order
	b.freeBytes -= uint64(orderBytes(order))
	return a, true
}

func (b *buddy) free(a Addr, order int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	got, ok := b.allocated[a]
	if !ok {
		panic(fmt.Sprintf("mem: free of unallocated address %#x", a))
	}
	if got != order {
		panic(fmt.Sprintf("mem: free of %#x with order %d, allocated order %d", a, order, got))
	}
	delete(b.allocated, a)
	b.freeBytes += uint64(orderBytes(order))
	// Coalesce with the buddy while possible.
	for order < MaxOrder {
		buddyAddr := a ^ orderBytes(order)
		if buddyAddr < b.base || buddyAddr >= b.end || !b.isFree(order, buddyAddr) {
			break
		}
		b.mark(order, buddyAddr, false)
		if buddyAddr < a {
			a = buddyAddr
		}
		order++
	}
	b.mark(order, a, true)
}
