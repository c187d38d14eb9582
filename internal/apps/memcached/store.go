package memcached

import (
	"maps"
	"slices"
	"strings"
	"sync"

	"ebbrt/internal/costs"
	"ebbrt/internal/rcu"
	"ebbrt/internal/sim"
)

// Entry is one stored key-value pair.
type Entry struct {
	Value []byte
	Flags uint32
	// CAS is the entry's version token, reported by the text protocol's
	// `gets` and the binary GET response header. Plain stores mint it
	// from the server-local counter (Server.nextCAS), as stock memcached
	// does. Stores carrying a nonzero request CAS instead keep that
	// exact value - the cluster's replica-wide version stamps, assigned
	// once per write by the coordinating client so every replica of a
	// key (including read-repaired and migrated copies) holds the same
	// stamp. Coordinator stamps live above any server-minted value, so
	// the two spaces never conflict on a mixed-history entry.
	CAS uint64
	// Expires is the absolute virtual time the entry dies at: 0 means
	// never, ExpiredImmediately means it was stored already dead, and
	// anything else is compared lazily against the clock on every lookup
	// (expiry.go has the wire-exptime resolution rules).
	Expires sim.Time
	// StoredAt is when the entry was written, the timestamp flush_all's
	// oldest-live rule compares against: a flush at time T kills every
	// entry stored before T once T arrives.
	StoredAt sim.Time
}

// Store abstracts the key-value backing so the harness can compare the RCU
// table against a conventional locked table (the paper attributes
// memcached's poor multicore scaling to lock contention, §4.2).
//
// Every method borrows its key for the call: the server passes a view of
// the request's bytes (keyView), which the connection reuses once the
// request is served. A store that inserts a key it does not hold makes its
// own copy; one that replaces an entry keeps the resident key. So a key's
// bytes are copied once, when the store first takes it, and a lookup, a
// delete or an overwrite copies none.
type Store interface {
	Get(key string) (*Entry, bool)
	// Set stores the entry, reporting whether it was stored: the
	// unbounded stores always succeed, the bounded store reports false
	// when the entry cannot fit its memory budget even after eviction.
	Set(key string, e *Entry) bool
	// Add stores the entry only if the key is absent, reporting whether it
	// was stored. The migration stream applies transferred entries with Add
	// so a fresher value dual-written during handoff is never clobbered by
	// the source's older snapshot.
	Add(key string, e *Entry) bool
	Delete(key string) bool
	Len() int
	// Scan invokes fn over a point-in-time snapshot of the store taken
	// when Scan is called: concurrent Sets and Deletes affect neither the
	// visited set nor its values, and fn may itself mutate the store. A
	// false return stops the scan. This is what the migrator iterates to
	// stream a key range to a new owner. The order is deterministic: key
	// order for the map-backed stores, table order for the RCU store.
	Scan(fn func(key string, e *Entry) bool)
	// Keys returns the keys of a point-in-time snapshot, in Scan's order.
	Keys() []string
	// OpCost reports the extra virtual CPU charged per operation when
	// invoked with the given number of actively serving cores (models
	// synchronization cost the structure imposes).
	OpCost(activeCores int) sim.Time
	Name() string
}

// RCUStore stores entries in the RCU hash table: reads are lock-free, so
// the per-operation cost does not grow with core count.
type RCUStore struct {
	t *rcu.Table[string, *Entry]
}

// NewRCUStore creates the default store.
func NewRCUStore() *RCUStore {
	return &RCUStore{t: rcu.NewTable[string, *Entry](rcu.StringHash, 1024)}
}

// Name implements Store.
func (s *RCUStore) Name() string { return "rcu" }

// Get implements Store.
func (s *RCUStore) Get(key string) (*Entry, bool) { return s.t.Get(key) }

// Set implements Store.
func (s *RCUStore) Set(key string, e *Entry) bool { s.t.Put(key, e); return true }

// Add implements Store.
func (s *RCUStore) Add(key string, e *Entry) bool { return s.t.PutIfAbsent(key, e) }

// Delete implements Store.
func (s *RCUStore) Delete(key string) bool { return s.t.Delete(key) }

// Len implements Store.
func (s *RCUStore) Len() int { return s.t.Len() }

// Scan implements Store: the snapshot is collected under the table's
// writer lock (one consistent point in time), then fn runs lock-free so
// it may Set/Delete without deadlocking.
func (s *RCUStore) Scan(fn func(key string, e *Entry) bool) {
	snap := snapshotTable(s.t)
	for _, kv := range snap {
		if !fn(kv.k, kv.v) {
			return
		}
	}
}

// Keys implements Store.
func (s *RCUStore) Keys() []string {
	snap := snapshotTable(s.t)
	keys := make([]string, len(snap))
	for i, kv := range snap {
		keys[i] = kv.k
	}
	return keys
}

type storePair struct {
	k string
	v *Entry
}

func snapshotTable(t *rcu.Table[string, *Entry]) []storePair {
	snap := make([]storePair, 0, t.Len())
	t.ForEach(func(k string, v *Entry) bool {
		snap = append(snap, storePair{k: k, v: v})
		return true
	})
	return snap
}

// OpCost implements Store: hash plus unsynchronized traversal.
func (s *RCUStore) OpCost(activeCores int) sim.Time { return costs.RCUStoreOpNs }

// LockedStore is the conventional globally-locked table (stock memcached's
// cache_lock), for the ablation benchmark: per-op cost includes the atomic
// and grows with contention.
type LockedStore struct {
	mu sync.Mutex
	m  map[string]*Entry
}

// NewLockedStore creates the ablation store.
func NewLockedStore() *LockedStore { return &LockedStore{m: map[string]*Entry{}} }

// Name implements Store.
func (s *LockedStore) Name() string { return "locked" }

// Get implements Store.
func (s *LockedStore) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	return e, ok
}

// Set implements Store. It copies the key on every call: a Go map
// assignment stores the key it is given even over a resident one.
func (s *LockedStore) Set(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[strings.Clone(key)] = e
	return true
}

// Add implements Store.
func (s *LockedStore) Add(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return false
	}
	s.m[strings.Clone(key)] = e
	return true
}

// Delete implements Store.
func (s *LockedStore) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	delete(s.m, key)
	return ok
}

// Len implements Store.
func (s *LockedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Scan implements Store: the snapshot is copied out under the lock and
// visited in key order, with fn unlocked so it may mutate the store.
func (s *LockedStore) Scan(fn func(key string, e *Entry) bool) {
	s.mu.Lock()
	snap := sortedSnapshot(s.m, func(e *Entry) *Entry { return e })
	s.mu.Unlock()
	for _, kv := range snap {
		if !fn(kv.k, kv.v) {
			return
		}
	}
}

// Keys implements Store, in key order.
func (s *LockedStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.m))
}

// sortedSnapshot copies a map-backed store's pairs out in key order, so
// a scan - a flush's deletions, a migration stream's chunks - never
// depends on Go's randomised map iteration.
func sortedSnapshot[V any](m map[string]V, entry func(V) *Entry) []storePair {
	snap := make([]storePair, 0, len(m))
	for k, v := range m {
		snap = append(snap, storePair{k: k, v: entry(v)})
	}
	slices.SortFunc(snap, func(a, b storePair) int { return strings.Compare(a.k, b.k) })
	return snap
}

// OpCost implements Store: an uncontended atomic plus contention that
// scales with the number of cores hammering the one lock.
func (s *LockedStore) OpCost(activeCores int) sim.Time {
	base := costs.LockedStoreOpNs
	if activeCores > 1 {
		base += sim.Time(activeCores) * costs.StoreLockPerCoreNs
	}
	return base
}
