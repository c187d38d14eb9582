package mem

import (
	"fmt"
	"sync"
)

// SlabAllocator allocates fixed-size objects from pages, following the
// SLQB design the paper cites: per-core representatives hold object free
// lists (accessed without synchronization thanks to non-preemptive
// per-core execution), and per-NUMA-node representatives hold partially
// allocated pages refilled under a rarely-taken lock.
//
// Alloc and Free take the invoking core explicitly (the C++ system gets it
// implicitly from the per-core translation region). Calls for the same
// core must not race - exactly the guarantee the event model provides.
type SlabAllocator struct {
	objSize  int
	objsPer  int
	pages    *PageAllocator
	coreNode func(core int) int
	cores    []slabCore
	nodes    []slabNode
}

// slabCore is the per-core representative. The padding prevents false
// sharing between adjacent cores under real parallel benchmarking.
type slabCore struct {
	free []Addr
	_    [64]byte
}

// slabNode is the per-NUMA-node representative: a spill pool shared by the
// node's cores, plus the page provenance map for leak checking.
type slabNode struct {
	mu    sync.Mutex
	spill []Addr
	pages []Addr
	_     [64]byte
}

// batchSize is how many objects move between a core list and the node pool
// at a time; batching keeps the node lock off the fast path.
const batchSize = 64

// maxCoreFree bounds the per-core list; beyond it, objects spill to the
// node so one core cannot hoard the working set (the balancing problem the
// paper notes is simple because the core count is static).
const maxCoreFree = 4 * batchSize

// NewSlabAllocator creates a slab allocator for objSize-byte objects on a
// machine with the given core count. coreNode maps a core to its NUMA node.
func NewSlabAllocator(pages *PageAllocator, objSize, cores int, coreNode func(int) int) *SlabAllocator {
	if objSize <= 0 || objSize > PageSize {
		panic(fmt.Sprintf("mem: slab object size %d out of range", objSize))
	}
	return &SlabAllocator{
		objSize:  objSize,
		objsPer:  PageSize / objSize,
		pages:    pages,
		coreNode: coreNode,
		cores:    make([]slabCore, cores),
		nodes:    make([]slabNode, pages.Nodes()),
	}
}

// Alloc returns one object. The fast path is an unsynchronized pop from
// the core's free list.
func (s *SlabAllocator) Alloc(core int) (Addr, bool) {
	c := &s.cores[core]
	if n := len(c.free); n > 0 {
		a := c.free[n-1]
		c.free = c.free[:n-1]
		return a, true
	}
	return s.refill(core)
}

// refill pulls a batch from the node pool (or carves a fresh page).
func (s *SlabAllocator) refill(core int) (Addr, bool) {
	node := s.coreNode(core)
	n := &s.nodes[node]
	c := &s.cores[core]
	n.mu.Lock()
	if len(n.spill) == 0 {
		pageAddr, ok := s.pages.Alloc(0, node)
		if !ok {
			n.mu.Unlock()
			return 0, false
		}
		n.pages = append(n.pages, pageAddr)
		for i := 0; i < s.objsPer; i++ {
			n.spill = append(n.spill, pageAddr+Addr(i*s.objSize))
		}
	}
	take := batchSize
	if take > len(n.spill) {
		take = len(n.spill)
	}
	c.free = append(c.free, n.spill[len(n.spill)-take:]...)
	n.spill = n.spill[:len(n.spill)-take]
	n.mu.Unlock()

	last := len(c.free) - 1
	a := c.free[last]
	c.free = c.free[:last]
	return a, true
}

// Free returns an object from the given core. The fast path is an
// unsynchronized push; overflow spills a batch back to the node.
func (s *SlabAllocator) Free(core int, a Addr) {
	c := &s.cores[core]
	c.free = append(c.free, a)
	if len(c.free) >= maxCoreFree {
		node := s.coreNode(core)
		n := &s.nodes[node]
		n.mu.Lock()
		n.spill = append(n.spill, c.free[len(c.free)-batchSize:]...)
		n.mu.Unlock()
		c.free = c.free[:len(c.free)-batchSize]
	}
}

// FreeObjects reports objects currently sitting free in core lists and
// node pools (for tests).
func (s *SlabAllocator) FreeObjects() int {
	total := 0
	for i := range s.cores {
		total += len(s.cores[i].free)
	}
	for i := range s.nodes {
		s.nodes[i].mu.Lock()
		total += len(s.nodes[i].spill)
		s.nodes[i].mu.Unlock()
	}
	return total
}
