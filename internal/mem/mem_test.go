package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func newTestPages() *PageAllocator {
	return NewPageAllocator(2, 64<<20) // 2 nodes x 64 MiB
}

func TestBuddyAllocFree(t *testing.T) {
	p := newTestPages()
	start := p.FreeBytes()
	a, ok := p.Alloc(0, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if p.FreeBytes() != start-PageSize {
		t.Fatalf("free bytes %d", p.FreeBytes())
	}
	p.Free(a, 0)
	if p.FreeBytes() != start {
		t.Fatal("free did not restore")
	}
}

func TestBuddyAlignment(t *testing.T) {
	p := newTestPages()
	for order := 0; order <= MaxOrder; order++ {
		a, ok := p.Alloc(order, 0)
		if !ok {
			t.Fatalf("order %d alloc failed", order)
		}
		if uint64(a)%uint64(PageSize<<order) != 0 {
			t.Fatalf("order %d allocation %#x misaligned", order, a)
		}
		p.Free(a, order)
	}
}

func TestBuddyCoalescing(t *testing.T) {
	p := NewPageAllocator(1, 32<<20)
	start := p.FreeBytes()
	// Allocate every order-0 page of one max block, then free them all;
	// afterwards a max-order allocation must succeed again.
	n := 1 << MaxOrder
	addrs := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		a, ok := p.Alloc(0, 0)
		if !ok {
			t.Fatal("exhausted early")
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		p.Free(a, 0)
	}
	if p.FreeBytes() != start {
		t.Fatal("bytes leaked")
	}
	if _, ok := p.Alloc(MaxOrder, 0); !ok {
		t.Fatal("coalescing failed: max-order alloc impossible after full free")
	}
}

func TestBuddyDistinctAddresses(t *testing.T) {
	p := newTestPages()
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		a, ok := p.Alloc(0, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if seen[a] {
			t.Fatalf("address %#x handed out twice", a)
		}
		seen[a] = true
	}
}

func TestBuddyNodeFallback(t *testing.T) {
	p := NewPageAllocator(2, 32<<20)
	// Exhaust node 0.
	var got []Addr
	for {
		a, ok := p.nodes[0].alloc(MaxOrder)
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("node 0 empty at start")
	}
	// Alloc preferring node 0 must fall back to node 1.
	a, ok := p.Alloc(0, 0)
	if !ok {
		t.Fatal("fallback failed")
	}
	if a < p.nodes[1].base {
		t.Fatalf("allocation %#x not from node 1", a)
	}
}

func TestBuddyDoubleFreePanics(t *testing.T) {
	p := newTestPages()
	a, _ := p.Alloc(0, 0)
	p.Free(a, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(a, 0)
}

func TestBuddyWrongOrderFreePanics(t *testing.T) {
	p := newTestPages()
	a, _ := p.Alloc(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-order free did not panic")
		}
	}()
	p.Free(a, 3)
}

func TestBuddyExhaustion(t *testing.T) {
	p := NewPageAllocator(1, 8<<20)
	var n int
	for {
		if _, ok := p.Alloc(MaxOrder, 0); !ok {
			break
		}
		n++
	}
	if n != 1 { // 8 MiB node = exactly one max-order block
		t.Fatalf("allocated %d max blocks from 8MiB", n)
	}
}

// Property: interleaved alloc/free sequences never hand out overlapping
// regions and always restore all bytes when everything is freed.
func TestBuddyNoOverlapProperty(t *testing.T) {
	type allocation struct {
		addr  Addr
		order int
	}
	prop := func(ops []uint8) bool {
		p := NewPageAllocator(1, 32<<20)
		start := p.FreeBytes()
		var live []allocation
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				order := int(op % (MaxOrder + 1))
				a, ok := p.Alloc(order, 0)
				if !ok {
					continue
				}
				// Overlap check against live allocations.
				lo, hi := a, a+orderBytes(order)
				for _, l := range live {
					llo, lhi := l.addr, l.addr+orderBytes(l.order)
					if lo < lhi && llo < hi {
						return false
					}
				}
				live = append(live, allocation{a, order})
			} else {
				i := int(op) % len(live)
				p.Free(live[i].addr, live[i].order)
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, l := range live {
			p.Free(l.addr, l.order)
		}
		return p.FreeBytes() == start
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func coreNode2(core int) int { return core % 2 }

func TestSlabAllocFree(t *testing.T) {
	p := newTestPages()
	s := NewSlabAllocator(p, 64, 4, coreNode2)
	a, ok := s.Alloc(0)
	if !ok {
		t.Fatal("alloc failed")
	}
	b, ok := s.Alloc(0)
	if !ok || a == b {
		t.Fatalf("second alloc %#x vs %#x", a, b)
	}
	s.Free(0, a)
	s.Free(0, b)
}

func TestSlabDistinctObjects(t *testing.T) {
	p := newTestPages()
	s := NewSlabAllocator(p, 8, 2, coreNode2)
	seen := map[Addr]bool{}
	for i := 0; i < 10000; i++ {
		a, ok := s.Alloc(i % 2)
		if !ok {
			t.Fatal("alloc failed")
		}
		if seen[a] {
			t.Fatalf("object %#x handed out twice", a)
		}
		seen[a] = true
	}
}

func TestSlabReuse(t *testing.T) {
	p := newTestPages()
	s := NewSlabAllocator(p, 8, 1, func(int) int { return 0 })
	a, _ := s.Alloc(0)
	s.Free(0, a)
	b, _ := s.Alloc(0)
	if a != b {
		t.Fatalf("LIFO reuse expected: %#x then %#x", a, b)
	}
}

func TestSlabSpillAndRefill(t *testing.T) {
	p := newTestPages()
	s := NewSlabAllocator(p, 8, 2, coreNode2)
	// Allocate far more than one batch on core 0, free all on core 0:
	// the spill path must bound the core list.
	var addrs []Addr
	for i := 0; i < 10*maxCoreFree; i++ {
		a, ok := s.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		s.Free(0, a)
	}
	if got := len(s.cores[0].free); got >= 10*maxCoreFree {
		t.Fatalf("core list grew unbounded: %d", got)
	}
	if s.FreeObjects() < 10*maxCoreFree {
		t.Fatal("objects lost in spill")
	}
}

func TestSlabParallelPerCore(t *testing.T) {
	p := NewPageAllocator(2, 256<<20)
	const cores = 8
	s := NewSlabAllocator(p, 8, cores, coreNode2)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			var live []Addr
			for i := 0; i < 20000; i++ {
				a, ok := s.Alloc(core)
				if !ok {
					t.Error("alloc failed")
					return
				}
				live = append(live, a)
				if len(live) > 32 {
					s.Free(core, live[0])
					live = live[1:]
				}
			}
			for _, a := range live {
				s.Free(core, a)
			}
		}(c)
	}
	wg.Wait()
}

// The buddy allocator hands out the lowest free address, so which block
// an allocation gets follows from the allocator's history alone.
func TestBuddyTakesLowestFreeAddress(t *testing.T) {
	p := newTestPages()
	var got []Addr
	for range 3 {
		a, _ := p.Alloc(0, 0)
		got = append(got, a)
	}
	if got[0] != 0 || got[1] != PageSize || got[2] != 2*PageSize {
		t.Fatalf("first three pages at %#x, want 0, %#x, %#x", got, PageSize, 2*PageSize)
	}
	p.Free(got[1], 0)
	if a, _ := p.Alloc(0, 0); a != got[1] {
		t.Fatalf("after freeing %#x the next page is %#x", got[1], a)
	}
	if a, _ := p.Alloc(1, 0); a != 4*PageSize {
		t.Fatalf("the next two-page block is at %#x, want %#x", a, 4*PageSize)
	}
}
