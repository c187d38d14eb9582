package memcached

import (
	"fmt"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/mem"
	"ebbrt/internal/sim"
)

const boundedTestBudget = uint64(mem.PageSize) << mem.MaxOrder // one block, the minimum

func boundedKey(i int) string { return fmt.Sprintf("k%06d", i) }

// fillEntry returns an entry whose charge lands in the 1024-byte class
// for the fixed-width keys above.
func fillEntry() *Entry {
	return &Entry{Value: make([]byte, 960)}
}

// fillToCapacity inserts entries until the first reclaim, returning how
// many fit without one.
func fillToCapacity(t *testing.T, s *BoundedStore) int {
	t.Helper()
	for i := 0; ; i++ {
		if !s.Set(boundedKey(i), fillEntry()) {
			t.Fatalf("set %d rejected during fill", i)
		}
		st := s.Stats()
		if st.Evictions+st.Expired > 0 {
			return i
		}
		if i > 1_000_000 {
			t.Fatal("budget never filled")
		}
	}
}

func TestBoundedStoreNeverExceedsBudget(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
	// Offer ~2x the budget in items.
	n := int(2 * boundedTestBudget / 1024)
	for i := 0; i < n; i++ {
		if !s.Set(boundedKey(i), fillEntry()) {
			t.Fatalf("set %d rejected", i)
		}
	}
	st := s.Stats()
	if st.BudgetBytes != boundedTestBudget {
		t.Fatalf("budget %d, want %d", st.BudgetBytes, boundedTestBudget)
	}
	if st.PeakBytes > st.BudgetBytes {
		t.Fatalf("peak %d exceeded budget %d", st.PeakBytes, st.BudgetBytes)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, st.BudgetBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("2x-budget offered load caused no evictions")
	}
	if st.Items >= n {
		t.Fatalf("all %d items resident under a budget for half", n)
	}
	if st.Items != s.Len() {
		t.Fatalf("stats items %d != Len %d", st.Items, s.Len())
	}
	// Every surviving key must still be readable.
	for _, k := range storeKeys(s) {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("resident key %s unreadable", k)
		}
	}
}

func TestBoundedStoreLRUBumpProtects(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
	capacity := fillToCapacity(t, s)
	// The fill's first reclaim evicted the insertion-order tail, key 0.
	if _, ok := s.Get(boundedKey(0)); ok {
		t.Fatal("LRU tail survived the first eviction")
	}
	// Bump key 1 (the current tail); the next eviction must take key 2.
	if _, ok := s.Get(boundedKey(1)); !ok {
		t.Fatal("key 1 missing before bump test")
	}
	s.Set(boundedKey(capacity+1), fillEntry())
	if _, ok := s.Get(boundedKey(1)); !ok {
		t.Fatal("recently-used key evicted despite LRU bump")
	}
	if _, ok := s.Get(boundedKey(2)); ok {
		t.Fatal("key 2 survived; eviction did not follow LRU order")
	}
}

func TestBoundedStoreFIFOIgnoresHits(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictFIFO, nil)
	capacity := fillToCapacity(t, s)
	// Under FIFO a hit must not protect the tail.
	if _, ok := s.Get(boundedKey(1)); !ok {
		t.Fatal("key 1 missing before hit test")
	}
	s.Set(boundedKey(capacity+1), fillEntry())
	if _, ok := s.Get(boundedKey(1)); ok {
		t.Fatal("FIFO tail survived eviction because of a hit")
	}
}

func TestBoundedStoreExpiredFirstReclaim(t *testing.T) {
	var now sim.Time
	s := NewBoundedStore(boundedTestBudget, EvictLRU, func() sim.Time { return now })
	// Probe capacity on a twin store, then fill this one just below it.
	capacity := fillToCapacity(t, NewBoundedStore(boundedTestBudget, EvictLRU, nil))
	// Key 1 - one step in from the LRU tail (key 0), inside the bounded
	// tail search - dies at 5 s.
	for i := 0; i < capacity; i++ {
		e := fillEntry()
		if i == 1 {
			e.Expires = 5 * sim.Second
		}
		if !s.Set(boundedKey(i), e) {
			t.Fatalf("set %d rejected", i)
		}
	}
	if st := s.Stats(); st.Evictions+st.Expired != 0 {
		t.Fatalf("reclaims during sub-capacity fill: %+v", st)
	}
	// Expire key 1 and push past the budget.
	now = 10 * sim.Second
	if !s.Set(boundedKey(capacity), fillEntry()) {
		t.Fatal("set past capacity rejected")
	}
	st := s.Stats()
	if st.Expired != 1 || st.Evictions != 0 {
		t.Fatalf("reclaim took a live entry over an expired one: %+v", st)
	}
	if _, ok := s.Get(boundedKey(1)); ok {
		t.Fatal("expired entry still resident")
	}
	if _, ok := s.Get(boundedKey(0)); !ok {
		t.Fatal("live tail evicted while an expired entry was in reach")
	}
}

func TestBoundedStoreLargeItems(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
	// ~128 KiB values take the whole-page-block path, not a slab class.
	large := func() *Entry { return &Entry{Value: make([]byte, 128<<10)} }
	if !s.Set("big0", large()) {
		t.Fatal("first large set rejected")
	}
	used := s.Stats().UsedBytes
	if used < 128<<10 {
		t.Fatalf("large item charged only %d bytes", used)
	}
	// Large-item pages return to the buddy allocator on delete - unlike
	// slab pages, which calcify.
	s.Delete("big0")
	if got := s.Stats().UsedBytes; got != 0 {
		t.Fatalf("large-item pages not returned: used %d after delete", got)
	}
	// Offer 2x the budget in large items; the list must evict to fit.
	n := int(2 * boundedTestBudget / (128 << 10))
	for i := 0; i < n; i++ {
		if !s.Set(fmt.Sprintf("big%d", i), large()) {
			t.Fatalf("large set %d rejected", i)
		}
	}
	st := s.Stats()
	if st.PeakBytes > st.BudgetBytes {
		t.Fatalf("large items peaked at %d over budget %d", st.PeakBytes, st.BudgetBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("large-item churn caused no evictions")
	}
	// An item bigger than the largest page block is unstorable.
	if s.Set("huge", &Entry{Value: make([]byte, int(boundedTestBudget)+1)}) {
		t.Fatal("stored an item larger than the whole budget")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("oversized store not counted as rejected")
	}
}

// TestBoundedStoreSlabCalcification: pages claimed by one size class
// never return to the buddy allocator, so once one class owns every
// page a different class - with nothing of its own to evict - cannot
// store at all, while the calcified class keeps cycling via its own
// LRU. This is stock memcached's slab calcification.
func TestBoundedStoreSlabCalcification(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
	capacity := fillToCapacity(t, s)        // 1024-class now owns every page
	small := &Entry{Value: make([]byte, 4)} // 64-byte class
	if s.Set("small0", small) {
		t.Fatal("starved class stored despite calcified pages and an empty LRU of its own")
	}
	if st := s.Stats(); st.Rejected == 0 {
		t.Fatalf("starved-class store not counted as rejected: %+v", st)
	}
	// The calcified class itself keeps working, evicting from its own LRU.
	if !s.Set(boundedKey(capacity+1), fillEntry()) {
		t.Fatal("calcified class rejected a same-class store")
	}
}

// TestBoundedStoreServerOOM: the server surfaces an unsatisfiable store
// - here into a class starved by calcified pages - as StatusOutOfMemory
// on the wire, and a store the calcified class can evict for succeeds.
func TestBoundedStoreServerOOM(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		store := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
		fillToCapacity(t, store)
		srv := NewServer(store, 1)
		_, fc := feed(c, srv,
			BuildSet([]byte("starved"), []byte("v"), 0, 1),
			BuildSet([]byte("ok"), make([]byte, 960), 0, 2),
		)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 2 {
			t.Fatalf("%d responses, want 2", len(hdrs))
		}
		if hdrs[0].Status != StatusOutOfMemory {
			t.Fatalf("oversized set status %#x, want OutOfMemory", hdrs[0].Status)
		}
		if hdrs[1].Status != StatusOK {
			t.Fatalf("normal set after OOM status %#x, want OK", hdrs[1].Status)
		}
	})
}

// What Scan hands fn is the snapshot's own: fn may let an entry go and
// store another, whose key and short value take the buffers the first
// left behind, and the key and value fn was handed still read as they
// did when the scan began. The values are borrowed, as the server's are.
func TestBoundedScanSurvivesReuse(t *testing.T) {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
	for _, k := range []string{"key-a", "key-b"} {
		s.Set(k, &Entry{Value: []byte("value-" + k), borrowed: true})
	}
	var seen []string
	s.Scan(func(key string, e *Entry) bool {
		s.Delete(key)
		s.Set("new-"+key[4:], &Entry{Value: []byte("other-" + key), borrowed: true})
		seen = append(seen, key+"="+string(e.Value))
		return true
	})
	if want := "[key-a=value-key-a key-b=value-key-b]"; fmt.Sprint(seen) != want {
		t.Fatalf("scan saw %v, want %s", seen, want)
	}
}

// A touch re-stores the entry's own value: the store copies it before it
// lets the old copy go, whose buffer the bounded store may hand straight
// back, so the value reads as it did (poisoned under the iobufdebug
// build tag if the order were the other way round).
func TestTouchKeepsShortValue(t *testing.T) {
	for name, mk := range allStores() {
		srv := NewServer(mk(), 1)
		srv.store(storeSet, "k", []byte("a short value"), 0, 0, 0, 0)
		if !srv.applyTouch("k", 5*sim.Second, 0) {
			t.Fatalf("%s: touch missed", name)
		}
		if e, ok := srv.Store.Get("k"); !ok || string(e.Value) != "a short value" || e.Expires != 5*sim.Second {
			t.Fatalf("%s: touch left %+v", name, e)
		}
	}
}
