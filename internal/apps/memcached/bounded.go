package memcached

import (
	"fmt"
	"strings"
	"sync"

	"ebbrt/internal/costs"
	"ebbrt/internal/mem"
	"ebbrt/internal/sim"
)

// BoundedStore is the memory-bounded store: the same Store interface as
// the unbounded tables, but every entry's bytes come from internal/mem's
// slab allocator over a fixed page budget, and when an allocation fails
// the store evicts from the exhausted size class's LRU list - stock
// memcached's slab-classed eviction design, which the paper's §4.2
// storage argument is about.
//
// Faithfulness notes:
//
//   - Entries are charged to the smallest slab class that fits
//     key+value+overhead; each class is a real mem.SlabAllocator carving
//     pages from the shared budget.
//   - Slab pages never return to the page allocator (the slab design has
//     no page reclaim), so a class that grew large early keeps its pages
//     even if the workload's size mix shifts - memcached's well-known
//     "slab calcification". Eviction is therefore per-class: an
//     allocation failure in class c evicts from class c's LRU only.
//   - Items too big for the largest class are backed by whole page-block
//     allocations with their own LRU; those pages DO return on eviction,
//     so large-item churn can refill the buddy allocator.
//   - Eviction prefers reclaiming expired entries near the LRU tail
//     (counted in Expired) before evicting a live one (counted in
//     Evictions), as stock memcached's tail search does.
//
// The backing bytes themselves live on the Go heap (entries hold real
// slices, or the server's pool elements for values it lends); the
// allocator tracks the simulated footprint, which is what the budget
// bounds.

// EvictionPolicy selects what the per-class lists reclaim first.
type EvictionPolicy uint8

const (
	// EvictLRU bumps an entry on every hit, so the tail is the least
	// recently used (stock memcached).
	EvictLRU EvictionPolicy = iota
	// EvictFIFO never bumps, so the tail is the oldest stored - the
	// ablation policy the MemoryPressure experiment compares against.
	EvictFIFO
)

func (p EvictionPolicy) String() string {
	if p == EvictFIFO {
		return "fifo"
	}
	return "lru"
}

// boundedClasses are the slab size classes entries are charged to.
// Anything larger than the last class is a large item backed by whole
// pages.
var boundedClasses = []int{64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096}

// boundedOverhead is the per-item metadata charge (item header, LRU
// links, hash chain), approximating stock memcached's ~48-56 byte item
// header.
const boundedOverhead = 56

// tailSearchDepth bounds how far from the LRU tail the eviction path
// looks for an expired entry before giving up and evicting a live one
// (stock memcached's bounded tail search).
const tailSearchDepth = 8

// boundedItem is one resident entry, held by value, plus its allocation
// provenance: a Set copies the caller's entry in, so an insert allocates
// the item alone and an overwrite nothing.
type boundedItem struct {
	key   string
	e     Entry
	class int      // index into classes, or -1 for a large item
	addr  mem.Addr // slab object or page-block base
	order int      // page order, large items only
	prev  *boundedItem
	next  *boundedItem
}

// boundedClass is one slab size class: its allocator and its LRU list
// (sentinel ring: head.next is most recent, head.prev the tail).
type boundedClass struct {
	size int
	slab *mem.SlabAllocator
	head boundedItem
	n    int
	// Per-class reclaim history, surfaced by `stats items`.
	evicted uint64
	expired uint64
}

func (c *boundedClass) init() {
	c.head.prev = &c.head
	c.head.next = &c.head
}

func (c *boundedClass) pushFront(it *boundedItem) {
	it.prev = &c.head
	it.next = c.head.next
	it.prev.next = it
	it.next.prev = it
	c.n++
}

func (c *boundedClass) unlink(it *boundedItem) {
	it.prev.next = it.next
	it.next.prev = it.prev
	it.prev, it.next = nil, nil
	c.n--
}

// BoundedStoreStats is the footprint and reclaim counters the
// MemoryPressure experiment gates on.
type BoundedStoreStats struct {
	BudgetBytes uint64 // page budget the store was created with
	UsedBytes   uint64 // pages carved from the budget right now
	PeakBytes   uint64 // high-water of UsedBytes
	ItemBytes   uint64 // bytes charged to resident items
	Items       int
	Evictions   uint64 // live entries evicted to satisfy an allocation
	Expired     uint64 // dead entries reclaimed (lazy lookups + eviction scan)
	Rejected    uint64 // stores refused even after eviction
}

// BoundedStore implements Store under a byte budget. All methods
// serialize on one mutex, like the stock cache_lock; OpCost models that.
type BoundedStore struct {
	mu      sync.Mutex
	m       map[string]*boundedItem
	pages   *mem.PageAllocator
	classes []*boundedClass
	large   boundedClass // items beyond the largest slab class
	policy  EvictionPolicy
	// Clock supplies the instant eviction scans classify entries against
	// (expired vs live). The server wires it to the simulation clock.
	clock func() sim.Time

	budget    uint64
	peak      uint64
	itemBytes uint64
	evictions uint64
	expired   uint64
	rejected  uint64
}

// NewBoundedStore creates a store over budgetBytes of simulated memory
// (rounded down to the page allocator's 8 MiB block granularity; at
// least one block). clock supplies "now" for the eviction scan's
// expired-first preference; nil means entries never look expired to it.
func NewBoundedStore(budgetBytes uint64, policy EvictionPolicy, clock func() sim.Time) *BoundedStore {
	blockBytes := uint64(mem.PageSize) << mem.MaxOrder
	if budgetBytes < blockBytes {
		panic(fmt.Sprintf("memcached: bounded store budget %d below one %d-byte block", budgetBytes, blockBytes))
	}
	budgetBytes -= budgetBytes % blockBytes
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	s := &BoundedStore{
		m:      make(map[string]*boundedItem),
		pages:  mem.NewPageAllocator(1, budgetBytes),
		policy: policy,
		clock:  clock,
		budget: budgetBytes,
	}
	for _, size := range boundedClasses {
		c := &boundedClass{
			size: size,
			slab: mem.NewSlabAllocator(s.pages, size, 1, func(int) int { return 0 }),
		}
		c.init()
		s.classes = append(s.classes, c)
	}
	s.large.init()
	return s
}

// charge reports the bytes an entry is accounted at before class
// rounding.
func chargeBytes(key string, e *Entry) int {
	return len(key) + len(e.Value) + boundedOverhead
}

// classFor picks the slab class index for a charge, or -1 for a large
// item.
func (s *BoundedStore) classFor(charge int) int {
	for i, c := range s.classes {
		if charge <= c.size {
			return i
		}
	}
	return -1
}

// Stats snapshots the counters.
func (s *BoundedStore) Stats() BoundedStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return BoundedStoreStats{
		BudgetBytes: s.budget,
		UsedBytes:   s.budget - s.pages.FreeBytes(),
		PeakBytes:   s.peak,
		ItemBytes:   s.itemBytes,
		Items:       len(s.m),
		Evictions:   s.evictions,
		Expired:     s.expired,
		Rejected:    s.rejected,
	}
}

// BoundedClassStats is one slab size class's occupancy and reclaim
// history, as `stats items` and `stats slabs` report it. Id is the
// 1-based class id (stock memcached numbers classes from 1).
type BoundedClassStats struct {
	Id         int
	ChunkSize  int
	Items      int
	UsedBytes  uint64 // Items * ChunkSize, the class-rounded charge
	FreeChunks int    // allocated-but-free slab objects
	Evicted    uint64
	Expired    uint64
}

// ClassStats snapshots the slab classes that have any history (resident
// items or past reclaims), in ascending chunk-size order. Large items
// (beyond the biggest class) appear only in the aggregate Stats.
func (s *BoundedStore) ClassStats() []BoundedClassStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []BoundedClassStats
	for i, c := range s.classes {
		if c.n == 0 && c.evicted == 0 && c.expired == 0 {
			continue
		}
		out = append(out, BoundedClassStats{
			Id:         i + 1,
			ChunkSize:  c.size,
			Items:      c.n,
			UsedBytes:  uint64(c.n) * uint64(c.size),
			FreeChunks: c.slab.FreeObjects(),
			Evicted:    c.evicted,
			Expired:    c.expired,
		})
	}
	return out
}

// Get implements Store. A hit is bumped to the front of its class's
// list under EvictLRU; EvictFIFO leaves the order as stored. The entry
// returned is the item's own, valid until the store's next mutation.
func (s *BoundedStore) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.m[key]
	if !ok {
		return nil, false
	}
	if s.policy == EvictLRU {
		c := s.classOf(it)
		c.unlink(it)
		c.pushFront(it)
	}
	return &it.e, true
}

func (s *BoundedStore) classOf(it *boundedItem) *boundedClass {
	if it.class < 0 {
		return &s.large
	}
	return s.classes[it.class]
}

// Set implements Store: false means the entry could not be stored
// within the budget even after eviction (the server answers
// SERVER_ERROR / StatusOutOfMemory). Over a resident key it reuses the
// item, key and entry included: the old backing goes back and the new
// entry, copied over the old, is charged afresh, exactly as a delete and
// an insert would do it.
func (s *BoundedStore) Set(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.m[key]
	if !ok {
		return s.insert(&boundedItem{key: strings.Clone(key), e: *e})
	}
	s.release(it)
	old := it.e
	it.e = *e
	stored := s.insert(it)
	if !stored {
		delete(s.m, it.key)
	}
	old.free() // after insert's hold: a touch re-stores the same element
	return stored
}

// Add implements Store.
func (s *BoundedStore) Add(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return false
	}
	return s.insert(&boundedItem{key: strings.Clone(key), e: *e})
}

// insert allocates backing for the item's entry, evicting as needed, and
// makes it resident, holding its element; a failed insert holds nothing.
func (s *BoundedStore) insert(it *boundedItem) bool {
	charge := chargeBytes(it.key, &it.e)
	ci := s.classFor(charge)
	it.class = ci
	if ci >= 0 {
		c := s.classes[ci]
		addr, ok := c.slab.Alloc(0)
		for !ok {
			// Freeing one object of this class guarantees the next Alloc
			// succeeds, so each round either progresses or proves the
			// store can do nothing more for this class.
			if !s.reclaimFrom(c) && !s.reclaimFrom(&s.large) {
				s.rejected++
				return false
			}
			addr, ok = c.slab.Alloc(0)
		}
		it.addr = addr
		s.itemBytes += uint64(c.size)
	} else {
		order := largeOrder(charge)
		if order < 0 {
			// Bigger than the largest page block: unstorable at any budget.
			s.rejected++
			return false
		}
		addr, ok := s.pages.Alloc(order, 0)
		for !ok {
			// Only large-item pages ever come back to the buddy
			// allocator, so only the large list can unblock this.
			if !s.reclaimFrom(&s.large) {
				s.rejected++
				return false
			}
			addr, ok = s.pages.Alloc(order, 0)
		}
		it.addr = addr
		it.order = order
		s.itemBytes += uint64(mem.PageSize) << order
	}
	s.m[it.key] = it
	s.classOf(it).pushFront(it)
	it.e.retain()
	if used := s.budget - s.pages.FreeBytes(); used > s.peak {
		s.peak = used
	}
	return true
}

// largeOrder picks the page order backing a large item, or -1 when even
// the largest block cannot hold it.
func largeOrder(charge int) int {
	for order := 0; order <= mem.MaxOrder; order++ {
		if mem.PageSize<<order >= charge {
			return order
		}
	}
	return -1
}

// reclaimFrom frees one entry from the class: an expired one near the
// tail if the bounded search finds it, else the tail itself. False
// means the class has nothing resident.
func (s *BoundedStore) reclaimFrom(c *boundedClass) bool {
	if c.n == 0 {
		return false
	}
	now := s.clock()
	victim := c.head.prev // tail = coldest
	depth := 0
	for it := c.head.prev; it != &c.head && depth < tailSearchDepth; it = it.prev {
		if it.e.Expired(now) {
			victim = it
			s.expired++
			c.expired++
			s.removeItem(victim)
			return true
		}
		depth++
	}
	s.evictions++
	c.evicted++
	s.removeItem(victim)
	return true
}

// removeItem drops the item from the store, releases it and frees its
// element.
func (s *BoundedStore) removeItem(it *boundedItem) {
	delete(s.m, it.key)
	s.release(it)
	it.e.free()
}

// release unlinks the item and returns its backing to the allocator
// (slab object to its class, large pages to the buddy allocator).
func (s *BoundedStore) release(it *boundedItem) {
	s.classOf(it).unlink(it)
	if it.class >= 0 {
		c := s.classes[it.class]
		c.slab.Free(0, it.addr)
		s.itemBytes -= uint64(c.size)
		return
	}
	s.pages.Free(it.addr, it.order)
	s.itemBytes -= uint64(mem.PageSize) << it.order
}

// Delete implements Store.
func (s *BoundedStore) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.m[key]
	if !ok {
		return false
	}
	s.removeItem(it)
	return true
}

// Len implements Store.
func (s *BoundedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Scan implements Store: snapshot under the lock, visited in key order,
// fn unlocked so it may mutate the store. The snapshot copies the
// entries, since a Set over a resident key writes into its item.
func (s *BoundedStore) Scan(fn func(key string, e *Entry) bool) {
	s.mu.Lock()
	snap := sortedSnapshot(s.m, func(it *boundedItem) Entry { return it.e })
	s.mu.Unlock()
	visit(snap, fn)
}

// OpCost implements Store: one lock like the stock cache_lock, plus the
// LRU bookkeeping, contended across actively serving cores.
func (s *BoundedStore) OpCost(activeCores int) sim.Time {
	base := costs.BoundedStoreOpNs
	if activeCores > 1 {
		base += sim.Time(activeCores) * costs.StoreLockPerCoreNs
	}
	return base
}
