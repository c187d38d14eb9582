package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ebbrt/internal/sim"
)

func TestCMSketchCountsAndConservativeUpdate(t *testing.T) {
	s := newCMSketch(1024, 4)
	h := ringHash([]byte("hot-key"))
	for i := 1; i <= 20; i++ {
		if got := s.touch(h); got != uint32(i) {
			t.Fatalf("touch %d: estimate %d", i, got)
		}
	}
	if got := s.estimate(h); got != 20 {
		t.Fatalf("estimate after 20 touches: %d", got)
	}
	if got := s.estimate(ringHash([]byte("never-seen"))); got > 20 {
		t.Fatalf("unseen key estimated %d (row collision should stay <= hottest count)", got)
	}
	// A cold key's estimate must not be inflated past its own touch
	// count plus collisions; with one hot key in a 1024-wide, 4-deep
	// sketch a disjoint key should estimate 0.
	cold := ringHash([]byte("cold-key"))
	if got := s.estimate(cold); got != 0 {
		t.Fatalf("cold key pre-touch estimate %d, want 0", got)
	}
}

func TestHotCacheLRUEvictionOrder(t *testing.T) {
	var stats HotKeyStats
	hc := newHotCache(3, sim.Second, &stats)
	now := sim.Time(0)
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		hc.put([]byte(k), uint64(i), []byte(k), 0, uint64(i+1), 0, now)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := hc.get([]byte("k0"), 0, now); !ok {
		t.Fatal("k0 missing")
	}
	hc.put([]byte("k3"), 3, []byte("k3"), 0, 10, 0, now)
	if stats.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", stats.Evictions)
	}
	if _, ok := hc.get([]byte("k1"), 1, now); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for i, k := range []string{"k0", "k2", "k3"} {
		if _, ok := hc.get([]byte(k), []uint64{0, 2, 3}[i], now); !ok {
			t.Fatalf("%s evicted, want it cached", k)
		}
	}
}

// TestHotCacheEvictionReusesTail: a put at capacity evicts the LRU tail
// and reuses its entry, and the cache ends where inserting first and
// evicting after would leave it - same order, same counters - while a
// refresh of a cached key allocates nothing.
func TestHotCacheEvictionReusesTail(t *testing.T) {
	var stats HotKeyStats
	hc := newHotCache(3, sim.Second, &stats)
	for i, k := range []string{"a", "b", "c"} {
		hc.put([]byte(k), uint64(i), []byte(k), 0, 1, 0, 0)
	}
	hc.get([]byte("a"), 0, 0) // b is now the tail
	tail := hc.tail
	hc.put([]byte("d"), 3, []byte("d"), 0, 1, 0, 0)
	if got, want := hc.keysMRU(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after eviction %v, want %v", got, want)
	}
	if stats.Fills != 4 || stats.Evictions != 1 {
		t.Fatalf("fills %d evictions %d, want 4 and 1", stats.Fills, stats.Evictions)
	}
	if e := hc.lookup([]byte("d"), 3); e != tail || e.hash != 3 || string(e.value) != "d" || e.prev != nil || string(hc.tail.key) != "c" {
		t.Fatalf("the new key did not take the evicted tail's entry: %+v", e)
	}
	hc.put([]byte("e"), 4, []byte("e"), 0, 1, 0, 0)
	hc.put([]byte("c"), 2, []byte("c2"), 0, 2, 0, 0) // c was evicted: a fresh fill evicting a
	if got, want := hc.keysMRU(), []string{"c", "e", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after two more evictions %v, want %v", got, want)
	}
	if stats.Fills != 6 || stats.Evictions != 3 || hc.len() != 3 {
		t.Fatalf("fills %d evictions %d len %d, want 6, 3 and 3", stats.Fills, stats.Evictions, hc.len())
	}
	key, value := []byte("d"), []byte("d2")
	if allocs := testing.AllocsPerRun(100, func() { hc.put(key, 3, value, 0, 5, 0, 0) }); allocs != 0 {
		t.Fatalf("refreshing a cached key allocated %.0f objects", allocs)
	}
	if got := hc.keysMRU(); got[0] != "d" || stats.Fills != 6 {
		t.Fatalf("a refresh moved the counters or missed the bump: %v %+v", got, stats)
	}
}

// TestHotCacheHashCollisions: two keys with one hash share an index
// slot as a chain, and each is held, found, invalidated and evicted on
// its own, whichever link of the chain it is.
func TestHotCacheHashCollisions(t *testing.T) {
	const h = 7
	var stats HotKeyStats
	hc := newHotCache(4, sim.Second, &stats)
	found := func(k string) {
		t.Helper()
		if e, ok := hc.get([]byte(k), h, 0); !ok || string(e.value) != "v"+k {
			t.Fatalf("%s: found %v entry %+v, want value %q", k, ok, e, "v"+k)
		}
	}
	missing := func(k string) {
		t.Helper()
		if _, ok := hc.get([]byte(k), h, 0); ok {
			t.Fatalf("%s found after it was dropped", k)
		}
	}
	put := func(k string, hash uint64) { hc.put([]byte(k), hash, []byte("v"+k), 0, 1, 0, 0) }

	put("x", h)
	put("y", h) // y heads the chain, x follows
	found("x")
	found("y")
	// Drop the chain's second link.
	if !hc.invalidate([]byte("x"), h) {
		t.Fatal("x not invalidated")
	}
	missing("x")
	found("y")
	if hc.invalidate([]byte("x"), h) {
		t.Fatal("x invalidated twice")
	}
	// x heads the chain now, y follows: drop the head.
	put("x", h)
	if !hc.invalidate([]byte("x"), h) {
		t.Fatal("x not invalidated")
	}
	missing("x")
	found("y")
	if !hc.invalidate([]byte("y"), h) || hc.len() != 0 || len(hc.m) != 0 {
		t.Fatalf("y not invalidated, or the index kept a slot: len %d, index %d", hc.len(), len(hc.m))
	}

	hc = newHotCache(2, sim.Second, &stats)
	put("x", h)
	put("y", h)   // chain y, x; x is the LRU tail
	put("z", h+1) // evicts x, the chain's second link
	missing("x")
	found("y")
	put("x", h)   // evicts z; chain x, y
	found("y")    // x is the LRU tail
	put("z", h+1) // evicts x, the chain's head
	missing("x")
	found("y")
	if stats.Evictions != 3 || hc.len() != 2 {
		t.Fatalf("evictions %d len %d, want 3 and 2", stats.Evictions, hc.len())
	}
}

// TestHotCacheRefillAllocatesNothing: an entry dropped by an
// invalidation or a TTL expiry goes to the spare list, and the next fill
// - of another key of the same size - takes it and copies into its key
// and value buffers.
func TestHotCacheRefillAllocatesNothing(t *testing.T) {
	var stats HotKeyStats
	ttl := sim.Millisecond
	hc := newHotCache(4, ttl, &stats)
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2"), []byte("k3"), []byte("k4")}
	value := bytes.Repeat([]byte("v"), 100)
	for i, k := range keys[:4] {
		hc.put(k, uint64(i), value, 0, 1, 0, 0)
	}
	// Before iteration i the cache holds every key but keys[(i+4)%5]:
	// each iteration drops keys[i%5] and fills the absent one.
	i, now := 0, sim.Time(0)
	fill := func() {
		in := (i + 4) % 5
		hc.put(keys[in], uint64(in), value, 0, 1, 0, now)
		i++
	}
	if allocs := testing.AllocsPerRun(100, func() {
		hc.invalidate(keys[i%5], uint64(i%5))
		fill()
	}); allocs != 0 {
		t.Fatalf("a fill after an invalidation allocated %.0f objects", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		now += ttl + 1
		if _, ok := hc.get(keys[i%5], uint64(i%5), now); ok {
			t.Fatal("an entry past its TTL served")
		}
		fill()
	}); allocs != 0 {
		t.Fatalf("a fill after a TTL expiry allocated %.0f objects", allocs)
	}
	if stats.Fills != 4+2*101 || stats.Expired != 101 || stats.Evictions != 0 || hc.len() != 4 {
		t.Fatalf("counters %+v len %d, want 206 fills, 101 expiries, no evictions, 4 entries", stats, hc.len())
	}
}

func TestHotCacheTTLExpiry(t *testing.T) {
	var stats HotKeyStats
	ttl := 2 * sim.Millisecond
	hc := newHotCache(8, ttl, &stats)
	hc.put([]byte("k"), 1, []byte("v"), 0, 1, 0, 0)
	if _, ok := hc.get([]byte("k"), 1, ttl); !ok {
		t.Fatal("entry at exactly TTL age should still serve")
	}
	if _, ok := hc.get([]byte("k"), 1, ttl+1); ok {
		t.Fatal("entry past TTL served")
	}
	if stats.Expired != 1 {
		t.Fatalf("expired %d, want 1", stats.Expired)
	}
	if hc.len() != 0 {
		t.Fatal("expired entry not dropped")
	}
}

func TestHotCachePutCASMonotonic(t *testing.T) {
	var stats HotKeyStats
	hc := newHotCache(8, sim.Second, &stats)
	hc.put([]byte("k"), 1, []byte("new"), 7, 5, 0, 0)
	// A reordered older response must not roll the entry back.
	hc.put([]byte("k"), 1, []byte("old"), 0, 3, 0, 1)
	e, ok := hc.get([]byte("k"), 1, 1)
	if !ok || string(e.value) != "new" || e.cas != 5 {
		t.Fatalf("entry rolled back to %+v", e)
	}
	hc.put([]byte("k"), 1, []byte("newer"), 1, 9, 0, 2)
	if e, _ := hc.get([]byte("k"), 1, 2); string(e.value) != "newer" || e.cas != 9 {
		t.Fatalf("newer CAS not applied: %+v", e)
	}
}

// TestSketchPromotionEvictionDeterminism feeds the same seeded Zipf
// stream through two independent hot-key representatives applying the
// read-path admission rule, and requires byte-identical cache state -
// promotion and eviction must be a pure function of the op stream.
func TestSketchPromotionEvictionDeterminism(t *testing.T) {
	run := func() ([]string, HotKeyStats) {
		hk := newHotKeyRep(HotKeyOptions{Enable: true, capacity: 32, PromoteMin: 4}.withDefaults())
		rng := sim.NewRng(99)
		zipf := sim.NewZipf(rng, 1.2, 2000)
		now := sim.Time(0)
		for i := 0; i < 50000; i++ {
			now += 10 * sim.Microsecond
			keyIdx := zipf.Next()
			key := []byte(fmt.Sprintf("zipf-key-%d", keyIdx))
			h := ringHash(key)
			if _, ok := hk.cache.get(key, h, now); ok {
				hk.stats.Hits++
				continue
			}
			hk.stats.Misses++
			if hk.sketch.touch(h) >= hk.opt.PromoteMin {
				hk.cache.put(key, h, []byte("v"), 0, uint64(i), 0, now)
			}
		}
		return hk.cache.keysMRU(), hk.stats
	}
	keysA, statsA := run()
	keysB, statsB := run()
	if !reflect.DeepEqual(keysA, keysB) {
		t.Fatalf("cache contents diverged:\n%v\n%v", keysA, keysB)
	}
	if statsA != statsB {
		t.Fatalf("stats diverged:\n%+v\n%+v", statsA, statsB)
	}
	if len(keysA) != 32 {
		t.Fatalf("cache holds %d entries, want full capacity 32", len(keysA))
	}
	if statsA.Evictions == 0 || statsA.Hits == 0 {
		t.Fatalf("stream did not exercise eviction and hits: %+v", statsA)
	}
}
