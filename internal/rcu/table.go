// Package rcu implements an RCU hash table (paper §3.6, §4.2).
//
// EbbRT's event-driven execution makes RCU a natural primitive: without
// preemption, entering and exiting a read-side critical section costs
// nothing, and grace periods align with event boundaries. The network
// stack keeps connection state in an RCU hash table so common-case lookups
// proceed without atomic operations on shared cache lines, and the
// memcached port stores key-value pairs the same way to avoid lock
// contention.
//
// The table needs no grace-period machinery of its own. A writer
// unpublishes with an atomic store and never frees: an unlinked node or a
// superseded bucket array stays valid for as long as a reader can still
// reach it, and the garbage collector reclaims it after the last one lets
// go. That is what a grace period buys the C++ system, which frees by
// hand. The table is correct under real goroutine parallelism too (the
// hosted environment and the race detector's runs): readers load with
// acquire and writers publish with release atomics.
package rcu

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Table is a resizable RCU hash table. Lookups are lock-free and perform
// no writes to shared memory; inserts and deletes serialize on a writer
// lock and publish with atomic stores, so readers always observe a
// consistent chain. Removed nodes keep their forward pointers intact (the
// classic RCU unlink), and superseded bucket arrays are reclaimed by the
// garbage collector after readers move on.
//
// Every method borrows its key for the call. A string key is copied
// once, when Put or PutIfAbsent inserts it; a replacement keeps the
// resident key. So a caller may pass a string that views bytes it will
// reuse, and a caller that already owns its strings pays one copy per
// insert.
type Table[K comparable, V any] struct {
	hash func(K) uint64
	mu   sync.Mutex // writers
	bkts atomic.Pointer[buckets[K, V]]
	n    int // entries, writer-locked
}

type buckets[K comparable, V any] struct {
	bins []atomic.Pointer[node[K, V]]
	mask uint64
}

type node[K comparable, V any] struct {
	key  K
	val  V
	next atomic.Pointer[node[K, V]]
}

// NewTable creates a table with the given hash function and initial
// bucket-count hint (rounded up to a power of two).
func NewTable[K comparable, V any](hash func(K) uint64, hint int) *Table[K, V] {
	size := 16
	for size < hint {
		size *= 2
	}
	t := &Table[K, V]{hash: hash}
	t.bkts.Store(&buckets[K, V]{bins: make([]atomic.Pointer[node[K, V]], size), mask: uint64(size - 1)})
	return t
}

// Get looks up key without locks or shared-memory writes.
func (t *Table[K, V]) Get(key K) (V, bool) {
	if v, ok := t.Ref(key); ok {
		return *v, true
	}
	var zero V
	return zero, false
}

// Ref looks up key like Get but returns a pointer to the value in the
// table's node rather than a copy. The pointer stays valid, and what it
// points to unchanged, for as long as it is held: a node's value is never
// written after the node is published - Put replaces the node, and a
// resize copies it. It shows the value as of the lookup, not any later
// Put's.
func (t *Table[K, V]) Ref(key K) (*V, bool) {
	b := t.bkts.Load()
	h := t.hash(key)
	for n := b.bins[h&b.mask].Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			return &n.val, true
		}
	}
	return nil, false
}

// Put inserts or replaces the value for key, returning the value it
// replaced, if any. Replacement is copy-on-update: a fresh node supersedes
// the old one so concurrent readers see either the old or the new value,
// never a torn mix. The fresh node keeps the resident key; only an insert
// takes its own (see own), so a caller may pass a key that borrows bytes
// it will reuse.
func (t *Table[K, V]) Put(key K, val V) (old V, replaced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bkts.Load()
	h := t.hash(key)
	bin := &b.bins[h&b.mask]

	// Replace in place (copy node, splice) if present.
	var prev *node[K, V]
	for n := bin.Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			repl := &node[K, V]{key: n.key, val: val}
			repl.next.Store(n.next.Load())
			if prev == nil {
				bin.Store(repl)
			} else {
				prev.next.Store(repl)
			}
			return n.val, true
		}
		prev = n
	}
	// Insert at head.
	nn := &node[K, V]{key: own(key), val: val}
	nn.next.Store(bin.Load())
	bin.Store(nn)
	t.n++
	if t.n > len(b.bins)*2 {
		t.resizeLocked(b)
	}
	return old, false
}

// PutIfAbsent inserts the value only if key is not present, reporting
// whether it inserted. Memcached's ADD semantics; bulk loaders use it so
// a concurrent fresh write is never overwritten by older data.
func (t *Table[K, V]) PutIfAbsent(key K, val V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bkts.Load()
	h := t.hash(key)
	bin := &b.bins[h&b.mask]
	for n := bin.Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			return false
		}
	}
	nn := &node[K, V]{key: own(key), val: val}
	nn.next.Store(bin.Load())
	bin.Store(nn)
	t.n++
	if t.n > len(b.bins)*2 {
		t.resizeLocked(b)
	}
	return true
}

// own returns the key a new node keeps: a string key's bytes are
// copied, so the table never holds a string that borrows a caller's
// buffer; any other key is a value already. Lookups and replacements
// never copy.
func own[K comparable](key K) K {
	if s, ok := any(&key).(*string); ok {
		*s = strings.Clone(*s)
	}
	return key
}

// Delete removes key, returning its value and whether it was present.
func (t *Table[K, V]) Delete(key K) (old V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bkts.Load()
	h := t.hash(key)
	bin := &b.bins[h&b.mask]
	var prev *node[K, V]
	for n := bin.Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			// RCU unlink: n keeps its next pointer so in-flight readers
			// traversing through n still reach the rest of the chain.
			if prev == nil {
				bin.Store(n.next.Load())
			} else {
				prev.next.Store(n.next.Load())
			}
			t.n--
			return n.val, true
		}
		prev = n
	}
	return old, false
}

// Len reports the entry count (writer-accurate; concurrent readers may see
// it lag by in-flight operations).
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// ForEach visits entries under the writer lock (administrative scans).
func (t *Table[K, V]) ForEach(fn func(K, V) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bkts.Load()
	for i := range b.bins {
		for n := b.bins[i].Load(); n != nil; n = n.next.Load() {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}

// resizeLocked doubles the bucket array and publishes it atomically.
// Readers concurrently traversing the old array still see valid chains.
func (t *Table[K, V]) resizeLocked(old *buckets[K, V]) {
	nb := &buckets[K, V]{
		bins: make([]atomic.Pointer[node[K, V]], len(old.bins)*2),
		mask: uint64(len(old.bins)*2 - 1),
	}
	for i := range old.bins {
		for n := old.bins[i].Load(); n != nil; n = n.next.Load() {
			h := t.hash(n.key)
			copyN := &node[K, V]{key: n.key, val: n.val}
			copyN.next.Store(nb.bins[h&nb.mask].Load())
			nb.bins[h&nb.mask].Store(copyN)
		}
	}
	t.bkts.Store(nb)
}

// StringHash is an FNV-1a hash for string keys.
func StringHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Uint64Hash mixes an integer key (splitmix64 finalizer).
func Uint64Hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
