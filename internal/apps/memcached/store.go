package memcached

import (
	"slices"
	"strings"
	"sync"

	"ebbrt/internal/costs"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/rcu"
	"ebbrt/internal/sim"
)

// Entry is one stored key-value pair.
type Entry struct {
	// Value is the value's bytes, nil for a chained one (elem): read a
	// value through Len and AppendValue.
	Value []byte
	Flags uint32
	// borrowed marks a value under borrowMin that the server built in
	// the buffer it reuses (Server.newValue): a store copies it to keep
	// it, and the copy it keeps carries the mark as the store's own. A
	// value with neither the mark nor an element is the caller's.
	borrowed bool
	// tomb marks a tombstone: the record a stamped Delete leaves, with
	// the Delete's stamp as CAS and its deadline as Expires, and no
	// value (Server.applyDelete).
	tomb bool
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

	// elem is the pool element Value lies in, for a value the server
	// copied in to lend (Server.newValue); for a chained value - one of
	// valueChunk bytes or more, which the server stores in chunks - the
	// chain, which the entry holds in place of Value and which knows its
	// length; nil for a slice someone else owns. Each copy of the entry a
	// store keeps is one of its every element's holders.
	elem *iobuf.IOBuf
}

// chained reports whether the value is a chain of chunks.
func (e *Entry) chained() bool { return e.Value == nil && e.elem != nil }

// Len reports the length of the entry's value.
func (e *Entry) Len() int {
	if e.chained() {
		return e.elem.ComputeChainDataLength()
	}
	return len(e.Value)
}

// pieces yields the entry's value in order: Value, or each element of a
// chained value's chain.
func (e *Entry) pieces(yield func([]byte) bool) {
	if !e.chained() {
		yield(e.Value)
		return
	}
	for el := e.elem; yield(el.Data()); {
		if el = el.Next(); el == e.elem {
			return
		}
	}
}

// AppendValue appends the entry's value to dst and returns the extended
// slice: how a caller that keeps a stored value past the store's next
// mutation copies it, a chained one included.
func (e *Entry) AppendValue(dst []byte) []byte {
	for b := range e.pieces {
		dst = append(dst, b...)
	}
	return dst
}

// Tombstone reports whether the entry is the tombstone a stamped Delete
// left. No lookup serves it (Server.EntryLive), but until its deadline
// its stamp orders writes like a stored value's.
func (e *Entry) Tombstone() bool { return e.tomb }

// retain adds a holder to the entry's element, if it has one: a store
// keeping a copy of the entry.
func (e *Entry) retain() {
	if e.elem != nil {
		e.elem.Retain()
	}
}

// free drops a holder of the entry's element, if it has one: a store
// letting its copy of the entry go. The element's last holder sends it
// back to its pool, so from then on nothing may read the Value of any
// copy of the entry.
func (e *Entry) free() {
	if e.elem != nil {
		e.elem.Free()
	}
}

// keep copies a borrowed entry into one a store can keep, with a copy of
// a short value and a hold on a lent one's element.
func keep(e *Entry) Entry {
	c := *e
	if c.borrowed {
		c.Value = slices.Clone(c.Value)
	}
	c.retain()
	return c
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
//
// Set borrows the *Entry too: a store keeps a copy of *e, never e,
// so the server passes one Entry it reuses for every store. A value under
// borrowMin that the server stores is borrowed like the key: the server
// builds it in a buffer it reuses and marks it (Entry.borrowed), and a
// store copies what it keeps - the RCU and locked stores into a new
// slice, the bounded store into a buffer that a value it let go left
// behind. A value the server copied into one of its pool
// elements to lend (Server.newValue), or into a chain of them, is not
// copied but counted: each copy of the entry a store keeps holds every
// element, and so does each GET response lending it, until the peer
// acknowledges it. A store frees its hold wherever it lets an entry go -
// an overwrite, a delete, an eviction, a failed insert - and an element's
// last holder sends it back to its pool. Any other value - one a caller
// of Set owns, as Prepopulate's are - is the caller's, and the collector
// reclaims it.
// Nobody writes a stored value's bytes.
type Store interface {
	// Get returns the stored entry, valid until the store's next
	// mutation: the bounded store writes an overwrite into the entry it
	// holds, and a store that lets the entry go frees its value's
	// element. A caller that keeps an entry, or its Value, past that
	// copies it.
	Get(key string) (*Entry, bool)
	// Set stores the entry, reporting whether it was stored: the
	// unbounded stores always succeed, the bounded store reports false
	// when the entry cannot fit its memory budget even after eviction.
	Set(key string, e *Entry) bool
	Delete(key string) bool
	Len() int
	// Scan invokes fn over a point-in-time snapshot of the store taken
	// when Scan is called: concurrent Sets and Deletes affect neither the
	// visited set nor its values, and fn may itself mutate the store. The
	// snapshot holds its values' elements until Scan returns, so an entry
	// fn sees is valid for the call even if fn deletes it. A false
	// return stops the scan. This is what the migrator iterates to
	// stream a key range to a new owner. The order is deterministic: key
	// order for the map-backed stores, table order for the RCU store.
	Scan(fn func(key string, e *Entry) bool)
	// OpCost reports the extra virtual CPU charged per operation when
	// invoked with the given number of actively serving cores (models
	// synchronization cost the structure imposes).
	OpCost(activeCores int) sim.Time
}

// RCUStore stores entries in the RCU hash table: reads are lock-free, so
// the per-operation cost does not grow with core count. Each entry lives
// in its table node, so an update makes one object, the node.
type RCUStore struct {
	t *rcu.Table[string, Entry]
}

// NewRCUStore creates the default store.
func NewRCUStore() *RCUStore {
	return &RCUStore{t: rcu.NewTable[string, Entry](rcu.StringHash, 1024)}
}

// Get implements Store: the entry is the one in the table's node, which
// no write changes (rcu.Table.Ref).
func (s *RCUStore) Get(key string) (*Entry, bool) { return s.t.Ref(key) }

// Set implements Store. Readers may hold the entry it replaces, so it
// stores a new node; a GET lending the old value holds its element.
func (s *RCUStore) Set(key string, e *Entry) bool {
	if old, ok := s.t.Put(key, keep(e)); ok {
		old.free()
	}
	return true
}

// Delete implements Store.
func (s *RCUStore) Delete(key string) bool {
	old, ok := s.t.Delete(key)
	if ok {
		old.free()
	}
	return ok
}

// Len implements Store.
func (s *RCUStore) Len() int { return s.t.Len() }

// Scan implements Store: the snapshot is collected under the table's
// writer lock (one consistent point in time), then fn runs lock-free so
// it may Set/Delete without deadlocking.
func (s *RCUStore) Scan(fn func(key string, e *Entry) bool) {
	visit(snapshotTable(s.t), fn)
}

// storePair is one snapshot entry. It holds a copy of the entry, and its
// element, so what Scan's fn sees is fixed when Scan starts, whatever fn
// stores.
type storePair struct {
	k string
	v Entry
}

func snapshotTable(t *rcu.Table[string, Entry]) []storePair {
	snap := make([]storePair, 0, t.Len())
	t.ForEach(func(k string, v Entry) bool {
		snap = append(snap, storePair{k: k, v: v})
		v.retain()
		return true
	})
	return snap
}

// visit runs Scan's fn over a snapshot until it returns false, then lets
// the snapshot's elements go.
func visit(snap []storePair, fn func(key string, e *Entry) bool) {
	for i := range snap {
		if !fn(snap[i].k, &snap[i].v) {
			break
		}
	}
	for i := range snap {
		snap[i].v.free()
	}
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
	old, ok := s.m[key]
	c := keep(e)
	s.m[strings.Clone(key)] = &c
	if ok {
		old.free()
	}
	return true
}

// Delete implements Store.
func (s *LockedStore) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.m[key]
	if ok {
		delete(s.m, key)
		old.free()
	}
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
	snap := sortedSnapshot(s.m, func(k string, e *Entry) storePair { return storePair{k: k, v: *e} })
	s.mu.Unlock()
	visit(snap, fn)
}

// sortedSnapshot copies a map-backed store's pairs out in key order, so
// a scan - a flush's deletions, a migration stream's chunks - never
// depends on Go's randomised map iteration. Each pair holds its element.
func sortedSnapshot[V any](m map[string]V, pair func(k string, v V) storePair) []storePair {
	snap := make([]storePair, 0, len(m))
	// order-free: the pairs are sorted by key below.
	for k, v := range m {
		snap = append(snap, pair(k, v))
		snap[len(snap)-1].v.retain()
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
