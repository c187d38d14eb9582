package memcached

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"ebbrt/internal/costs"
	"ebbrt/internal/iobuf"
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
// The backing bytes themselves live on the Go heap; the allocator tracks
// the simulated footprint, which is what the budget bounds. What the
// store lets go serves what it stores next, as stock memcached gives an
// insert the slab chunk its eviction freed: an evicted, deleted or
// refused item is the next inserted key's, and the buffers of its key and
// of a value under borrowMin, which the store copies, go on the spare
// list of their size class for the next key or short value. A value the
// server lends lies in its pool element instead, which the item holds.

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

// Spares the store keeps back for what it stores next. Items all have one
// size, so they share one list; the buffer of a key or a short value is
// kept on the list of its class (shortClass) while the class holds under
// shortSpareBytes of spares.
const (
	itemSpares      = 256
	shortClasses    = 32 // shortClass(borrowMin-1) + 1
	shortSpareBytes = 8 << 10
)

// shortClass returns the index and buffer size of the class a key or
// value of n bytes (n <= borrowMin) is copied into: n rounded up to a
// multiple of 16 up to 128 bytes, and beyond that to an eighth of the
// power of two below it, as valueClass rounds (whose classes count from
// borrowMin's).
func shortClass(n int) (idx, size int) {
	if n <= 128 {
		idx = max(n-1, 0) >> 4
		return idx, (idx + 1) << 4
	}
	idx, size = valueClass(n)
	return idx + shortClasses - 1, size
}

// boundedItem is one resident entry, held by value, plus its allocation
// provenance: a Set copies the caller's entry in, and its key and a short
// value into buffers of the store's (shortBuf).
type boundedItem struct {
	key []byte // the store's map holds a view of it (keyView)
	e   Entry
	backing
	prev *boundedItem
	next *boundedItem
}

// backing is where an item's bytes are charged.
type backing struct {
	class int      // index into classes, or -1 for a large item
	addr  mem.Addr // slab object or page-block base
	order int      // page order, large items only
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

	// items and shorts are the spares: items let go, and the buffers of
	// keys and short values let go, by class.
	items  []*boundedItem
	shorts [shortClasses][][]byte
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
	return len(key) + e.Len() + boundedOverhead
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
// SERVER_ERROR / StatusOutOfMemory), and then a resident entry under the
// key is gone too. Over a resident key it reuses the item, key included:
// the old backing goes back and the new entry, copied over the old, is
// charged afresh, exactly as a delete and an insert would do it.
func (s *BoundedStore) Set(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.m[key]
	if !ok {
		return s.insert(key, e)
	}
	s.release(it)
	if it.backing, ok = s.back(chargeBytes(key, e)); !ok {
		s.forget(it)
		return false
	}
	old := it.e
	s.place(it, e)
	s.drop(&old) // after place's copy and hold: a touch re-stores old's value
	return true
}

// insert makes the entry resident under a key the store does not hold,
// in a spare item if there is one: the backing comes first, so an item
// its eviction let go is the one the entry takes.
func (s *BoundedStore) insert(key string, e *Entry) bool {
	b, ok := s.back(chargeBytes(key, e))
	if !ok {
		return false
	}
	var it *boundedItem
	if n := len(s.items); n > 0 {
		it, s.items = s.items[n-1], s.items[:n-1]
	} else {
		it = new(boundedItem)
	}
	it.key = append(s.shortBuf(len(key)), key...)
	it.backing = b
	s.m[keyView(it.key)] = it
	s.place(it, e)
	return true
}

// place copies the entry into the item, a short value into a buffer of the
// store's, holding a lent value's element, and links the item at the
// front of its class's list.
func (s *BoundedStore) place(it *boundedItem, e *Entry) {
	it.e = *e
	if e.borrowed {
		it.e.Value = append(s.shortBuf(len(e.Value)), e.Value...)
	}
	it.e.retain()
	s.classOf(it).pushFront(it)
}

// shortBuf returns an empty buffer of the store's for a key or a short
// value of n bytes: a spare of its class if there is one.
func (s *BoundedStore) shortBuf(n int) []byte {
	if n > borrowMin {
		return make([]byte, 0, n) // a binary key that long: no class keeps it
	}
	i, size := shortClass(n)
	if k := len(s.shorts[i]); k > 0 {
		buf := s.shorts[i][k-1]
		s.shorts[i] = s.shorts[i][:k-1]
		return buf
	}
	return make([]byte, 0, size)
}

// dropShort takes back a buffer shortBuf made, poisoned under the
// iobufdebug build tag as a freed element is, and keeps it for the next
// key or short value of its class if the class has room.
func (s *BoundedStore) dropShort(buf []byte) {
	buf = buf[:cap(buf)]
	iobuf.Poison(buf)
	if len(buf) > borrowMin {
		return
	}
	if i, size := shortClass(len(buf)); len(s.shorts[i]) < shortSpareBytes/size {
		s.shorts[i] = append(s.shorts[i], buf[:0])
	}
}

// back allocates the backing for charge bytes, evicting as needed; false
// means the store cannot hold that much even after eviction.
func (s *BoundedStore) back(charge int) (backing, bool) {
	b := backing{class: s.classFor(charge)}
	if b.class >= 0 {
		c := s.classes[b.class]
		addr, ok := c.slab.Alloc(0)
		for !ok {
			// Freeing one object of this class guarantees the next Alloc
			// succeeds, so each round either progresses or proves the
			// store can do nothing more for this class.
			if !s.reclaimFrom(c) && !s.reclaimFrom(&s.large) {
				s.rejected++
				return b, false
			}
			addr, ok = c.slab.Alloc(0)
		}
		b.addr = addr
		s.itemBytes += uint64(c.size)
	} else {
		b.order = largeOrder(charge)
		if b.order < 0 {
			// Bigger than the largest page block: unstorable at any budget.
			s.rejected++
			return b, false
		}
		addr, ok := s.pages.Alloc(b.order, 0)
		for !ok {
			// Only large-item pages ever come back to the buddy
			// allocator, so only the large list can unblock this.
			if !s.reclaimFrom(&s.large) {
				s.rejected++
				return b, false
			}
			addr, ok = s.pages.Alloc(b.order, 0)
		}
		b.addr = addr
		s.itemBytes += uint64(mem.PageSize) << b.order
	}
	if used := s.budget - s.pages.FreeBytes(); used > s.peak {
		s.peak = used
	}
	return b, true
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

// removeItem drops the item from the store and releases it.
func (s *BoundedStore) removeItem(it *boundedItem) {
	s.release(it)
	s.forget(it)
}

// forget drops a released item from the store, lets its key and entry go
// and keeps the item for the next insert.
func (s *BoundedStore) forget(it *boundedItem) {
	delete(s.m, keyView(it.key))
	s.drop(&it.e)
	s.dropShort(it.key)
	*it = boundedItem{}
	if len(s.items) < itemSpares {
		s.items = append(s.items, it)
	}
}

// drop lets a value the store kept go: a short value's buffer, or the
// hold on a lent value's element.
func (s *BoundedStore) drop(e *Entry) {
	if e.borrowed {
		s.dropShort(e.Value)
	} else {
		e.free()
	}
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
// entries, since a Set over a resident key writes into its item, and
// their keys and short values, whose buffers a store fn makes can reuse.
func (s *BoundedStore) Scan(fn func(key string, e *Entry) bool) {
	s.mu.Lock()
	snap := sortedSnapshot(s.m, func(k string, it *boundedItem) storePair {
		p := storePair{k: strings.Clone(k), v: it.e}
		if p.v.borrowed {
			p.v.Value = slices.Clone(p.v.Value)
		}
		return p
	})
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
