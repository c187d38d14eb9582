package cluster

import (
	"bytes"
	"cmp"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// Hot-key read caching (the ROADMAP's Zipf-aware-placement item).
//
// The ETC workload's Zipf skew concentrates the hottest keys on
// whichever shard owns them: past ~4 backends the owning shard
// saturates while added backends idle in the skewed tail. The classic
// front-cache move absorbs those reads before they reach the owner: a
// small, per-core LRU inside the client Ebb, admitting only keys a
// frequency sketch has seen often enough to sit at the top of the Zipf
// curve.
//
// Coherence is version-stamped: every cached value carries the CAS the
// owning server stamped on the entry (PR 4's Entry.CAS, echoed in
// binary response headers). Three mechanisms bound staleness:
//
//   - the client's own writes invalidate the cached copy on every core
//     before the write is even submitted;
//   - a hard TTL: an entry older than TTL is never served, so a read
//     can lag another client's write by at most TTL;
//   - sampled revalidation: every revalidateEvery-th cache hit also
//     fetches the entry from its replica set and re-stamps (or drops)
//     the cached copy when the CAS moved.
//
// During a migration handoff the cache stands down for the moved
// ranges: entries covered by a pending MoveRange are flushed when the
// dual-routing window opens, and reads inside the window bypass the
// cache entirely, so a cutover can never serve a hit that predates it.
//
// CAS scope: stamps are replica-wide. The client assigns each write's
// version stamp once at submit (Cluster.nextStamp, a coordinator
// counter in a space above any server-minted CAS) and every replica
// stores and echoes that same stamp; read-repair and the migration
// stream preserve stamps rather than re-minting them. A fill served by
// one replica and a revalidation served by another therefore compare
// the same numbers, so the monotonic-CAS guards hold at any R - the
// R=1-only scoping this cache shipped with is closed. The quorum ack
// additionally folds the maximum stamp seen across replicas: a write
// that was superseded by a concurrent newer stamp is detected there and
// never re-enters the cache under the newer version's number.
//
// The write half of the skew - which a read cache cannot absorb - is
// attacked separately by salted hot-write spreading (HotWriteOptions):
// a key the cluster's write sketch promotes is split across K salted
// storage keys, writes round-robin the salts, and reads fan in across
// them, folding by stamp. Replica-wide stamps are what make the fan-in
// fold (and a checker's comparison across every owner) well defined.

// The hot-key cache's sizes and bounds. Experiments print them, so they
// are exported; sketchWidth x sketchDepth sizes both the client's read
// sketch and the cluster's write sketch (~16KB per core, collision error
// well under PromoteMin for the workloads the experiments drive).
const (
	// DefaultHotKeyCapacity bounds the cached entries per core.
	DefaultHotKeyCapacity = 128
	// DefaultHotKeyTTL is the hard staleness bound: an entry older than
	// this is never served.
	DefaultHotKeyTTL = 2 * sim.Millisecond
	// defaultRevalidateEvery samples one in that many cache hits for
	// asynchronous CAS revalidation against the replica set.
	defaultRevalidateEvery   = 16
	sketchWidth, sketchDepth = 1024, 4
)

// HotKeyOptions tunes the client Ebb's hot-key cache. The zero value
// disables it; Enable with everything else zero selects the defaults.
type HotKeyOptions struct {
	// Enable turns the cache on. Coherence holds at any replication
	// factor: version stamps are replica-wide (coordinator-assigned at
	// the client, stored and echoed verbatim by every replica), so
	// fills, revalidations, and write-path re-stamps compare the same
	// numbers no matter which replica answered (see the package comment
	// at the top of this file).
	Enable bool
	// Disable, on a ClientOptions.HotKey, keeps the cache off for that
	// client even when the cluster's Options.HotKey enables it for
	// clients generally (e.g. a writer that must not spend events on
	// cache maintenance). Meaningless on a cluster's options.
	Disable bool
	// PromoteMin is the sketch estimate at which a key qualifies as hot
	// and its next read fills the cache (default 8).
	PromoteMin uint32
	// OnHit, when set, is told of every hit the cache serves, at the
	// hit's instant: the key, the stamp served and when the entry was
	// filled (or last confirmed fresh). The client only reports; a
	// checker outside it, which may see every node, judges the hit.
	OnHit func(c *event.Ctx, key []byte, cas uint64, storedAt sim.Time)

	// capacity, ttl and revalidateEvery override DefaultHotKeyCapacity,
	// DefaultHotKeyTTL and defaultRevalidateEvery (tests); a negative
	// revalidateEvery disables sampling.
	capacity        int
	ttl             sim.Time
	revalidateEvery int
}

// withDefaults returns o with every unset field at its default, as
// NewClientWithOptions resolves it.
func (o HotKeyOptions) withDefaults() HotKeyOptions {
	o.capacity = cmp.Or(o.capacity, DefaultHotKeyCapacity)
	o.ttl = cmp.Or(o.ttl, DefaultHotKeyTTL)
	o.PromoteMin = cmp.Or(o.PromoteMin, 8)
	o.revalidateEvery = cmp.Or(o.revalidateEvery, defaultRevalidateEvery)
	return o
}

// HotKeyStats counts the cache's behavior, summed across the client's
// per-core representatives by Client.HotKeyStats.
type HotKeyStats struct {
	// Hits and Misses partition lookups on the read path (Misses counts
	// only lookups eligible for caching, not handoff bypasses).
	Hits, Misses uint64
	// Fills counts entries admitted after sketch promotion; Evictions
	// counts LRU displacements.
	Fills, Evictions uint64
	// Invalidations counts entries dropped by the client's own writes;
	// Flushes counts entries dropped when a migration handoff opened
	// over their range.
	Invalidations, Flushes uint64
	// Revalidations counts sampled CAS checks; Refreshes counts the
	// subset that found a moved CAS and re-stamped the entry.
	Revalidations, Refreshes uint64
	// Expired counts lookups that found an entry past its TTL.
	Expired uint64
	// OriginExpired counts lookups that found an entry past the origin
	// server's expiry deadline (carried in GET response extras) - dropped
	// even though the cache's own TTL had not run out.
	OriginExpired uint64
	// HandoffBypass counts reads that skipped the cache because their
	// key's range was mid-migration.
	HandoffBypass uint64
}

func (s *HotKeyStats) accumulate(o HotKeyStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fills += o.Fills
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Flushes += o.Flushes
	s.Revalidations += o.Revalidations
	s.Refreshes += o.Refreshes
	s.Expired += o.Expired
	s.OriginExpired += o.OriginExpired
	s.HandoffBypass += o.HandoffBypass
}

// HitRate is served hits over cache-eligible lookups.
func (s HotKeyStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cmSketch is a count-min frequency sketch with conservative update:
// an increment raises only the cells at the current minimum, tightening
// the overestimate. Purely deterministic - the same key stream always
// produces the same estimates, which is what makes cache admission
// reproducible run-to-run.
type cmSketch struct {
	width uint64
	rows  [][]uint32
}

func newCMSketch(width, depth int) *cmSketch {
	s := &cmSketch{width: uint64(width), rows: make([][]uint32, depth)}
	for i := range s.rows {
		s.rows[i] = make([]uint32, width)
	}
	return s
}

// cell computes row i's probe index by double hashing: (h1 + i*h2) mod
// width. h2 is derived once per operation (sketchH2) - touch probes
// every row twice, and this sits on the read hot path.
func (s *cmSketch) cell(h, h2 uint64, row int) uint32 {
	return uint32((h + uint64(row)*h2) % s.width)
}

func sketchH2(h uint64) uint64 { return mix64(h ^ 0xa5a5a5a5a5a5a5a5) }

// estimate returns the sketch's count for the key hash.
func (s *cmSketch) estimate(h uint64) uint32 {
	h2 := sketchH2(h)
	est := s.rows[0][s.cell(h, h2, 0)]
	for i := 1; i < len(s.rows); i++ {
		if v := s.rows[i][s.cell(h, h2, i)]; v < est {
			est = v
		}
	}
	return est
}

// touch counts one access and returns the updated estimate
// (conservative update: only cells at the minimum are raised).
func (s *cmSketch) touch(h uint64) uint32 {
	est := s.estimate(h) + 1
	h2 := sketchH2(h)
	for i := range s.rows {
		if c := s.cell(h, h2, i); s.rows[i][c] < est {
			s.rows[i][c] = est
		}
	}
	return est
}

// cacheEntry is one cached value on the LRU list (head = most recent).
// It owns its key and value buffers and keeps them when it is reused: a
// removed entry waits on the cache's spare list, and the next key
// admitted takes it and copies into the same buffers.
type cacheEntry struct {
	key      []byte
	hash     uint64 // ringHash(key): the cache's index, and for range-scoped flushes
	value    []byte
	flags    uint32
	cas      uint64 // the owner's Entry.CAS stamp at fill time
	storedAt sim.Time
	// expiresAt is the origin entry's absolute expiry (0 = never),
	// carried in the GET response extras. A cached copy must die at the
	// origin's deadline even when the cache's own TTL has time left.
	expiresAt sim.Time
	// prev and next link the LRU list; next also links the spare list.
	// chain is the next entry whose key has the same hash.
	prev  *cacheEntry
	next  *cacheEntry
	chain *cacheEntry
}

// hotCache is the per-core, size-bounded LRU. It is representative
// state: only its owning core touches it, so there are no locks - the
// Ebb pattern applied to the cache itself. It is indexed by the ring
// hash every caller already carries, so a lookup builds no key string;
// keys whose hashes collide share one index slot as a chain.
//
// An entry is made only when the spare list is empty and the cache is
// below capacity (at capacity the LRU tail is evicted first), so the
// entries in the cache and on the spare list together never exceed cap.
type hotCache struct {
	cap   int
	ttl   sim.Time
	m     map[uint64]*cacheEntry
	n     int
	head  *cacheEntry
	tail  *cacheEntry
	spare *cacheEntry
	stats *HotKeyStats
}

func newHotCache(cap int, ttl sim.Time, stats *HotKeyStats) *hotCache {
	return &hotCache{cap: cap, ttl: ttl, m: make(map[uint64]*cacheEntry, cap), stats: stats}
}

// lookup returns key's entry, whose ring hash is hash, or nil.
func (hc *hotCache) lookup(key []byte, hash uint64) *cacheEntry {
	for e := hc.m[hash]; e != nil; e = e.chain {
		if bytes.Equal(e.key, key) {
			return e
		}
	}
	return nil
}

// get returns the live cached entry for key, bumping it to MRU. An
// entry past its TTL is dropped and reported absent - the hard
// staleness bound.
func (hc *hotCache) get(key []byte, hash uint64, now sim.Time) (*cacheEntry, bool) {
	e := hc.lookup(key, hash)
	if e == nil {
		return nil, false
	}
	if now-e.storedAt > hc.ttl {
		hc.stats.Expired++
		hc.remove(e)
		return nil, false
	}
	if e.expiresAt != 0 && e.expiresAt <= now {
		hc.stats.OriginExpired++
		hc.remove(e)
		return nil, false
	}
	hc.bump(e)
	return e, true
}

// put admits (or refreshes) an entry, copying key and value into the
// entry's own buffers. At capacity a new key takes the LRU tail's place -
// its entry evicted and reused - which leaves the order and counters
// inserting first and evicting after would. CAS stamps from one server
// are monotonic, so a put carrying an older stamp than the cached one is
// a reordered delivery (a read response overtaken by a write-path
// re-stamp) and is dropped rather than letting it roll the entry back.
func (hc *hotCache) put(key []byte, hash uint64, value []byte, flags uint32, cas uint64, expiresAt, now sim.Time) {
	e := hc.lookup(key, hash)
	if e != nil {
		if cas < e.cas {
			return
		}
		hc.bump(e)
	} else {
		if hc.n >= hc.cap && hc.tail != nil {
			hc.stats.Evictions++
			hc.remove(hc.tail)
		}
		if e = hc.spare; e != nil {
			hc.spare = e.next
		} else {
			e = new(cacheEntry)
		}
		e.key, e.hash = append(e.key[:0], key...), hash
		e.chain, hc.m[hash] = hc.m[hash], e
		hc.n++
		hc.pushFront(e)
		hc.stats.Fills++
	}
	e.value = append(e.value[:0], value...)
	e.flags = flags
	e.cas = cas
	e.storedAt = now
	e.expiresAt = expiresAt
}

// invalidate drops key's entry, reporting whether one was present.
func (hc *hotCache) invalidate(key []byte, hash uint64) bool {
	e := hc.lookup(key, hash)
	if e == nil {
		return false
	}
	hc.remove(e)
	return true
}

// flushWhere drops every entry satisfying pred, returning how many were
// dropped. The handoff watcher uses it to clear the ranges a migration
// is about to move (pred gets the whole entry: a write-spread key's
// salted shards hash elsewhere than e.hash, and the watcher must flush
// when any of them is covered).
func (hc *hotCache) flushWhere(pred func(e *cacheEntry) bool) int {
	n := 0
	for e := hc.head; e != nil; {
		next := e.next
		if pred(e) {
			hc.remove(e)
			n++
		}
		e = next
	}
	return n
}

func (hc *hotCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = hc.head
	if hc.head != nil {
		hc.head.prev = e
	}
	hc.head = e
	if hc.tail == nil {
		hc.tail = e
	}
}

func (hc *hotCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		hc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		hc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove drops e from the LRU list and its hash chain and puts it on the
// spare list, where its buffers wait for the next key admitted. Under
// iobufdebug its value is poisoned: a hit lent it only until the read's
// callback returned, so a holder that kept it reads 0xDB (a Set or
// Delete of the key from inside that callback ends the loan here; see
// Callback).
func (hc *hotCache) remove(e *cacheEntry) {
	hc.unlink(e)
	if first := hc.m[e.hash]; first == e {
		if e.chain != nil {
			hc.m[e.hash] = e.chain
		} else {
			delete(hc.m, e.hash)
		}
	} else {
		p := first
		for p.chain != e {
			p = p.chain
		}
		p.chain = e.chain
	}
	e.chain = nil
	hc.n--
	iobuf.Poison(e.value)
	e.next, hc.spare = hc.spare, e
}

func (hc *hotCache) bump(e *cacheEntry) {
	if hc.head == e {
		return
	}
	hc.unlink(e)
	hc.pushFront(e)
}

// hotKeyRep is one core's hot-key machinery: its own sketch, its own
// LRU, its own counters. Created lazily with the clientRep it belongs
// to.
type hotKeyRep struct {
	opt        HotKeyOptions
	sketch     *cmSketch
	cache      *hotCache
	stats      HotKeyStats
	sinceReval int
}

func newHotKeyRep(opt HotKeyOptions) *hotKeyRep {
	hk := &hotKeyRep{opt: opt}
	hk.sketch = newCMSketch(sketchWidth, sketchDepth)
	hk.cache = newHotCache(opt.capacity, opt.ttl, &hk.stats)
	return hk
}

// HotWriteOptions tunes salted hot-write spreading, the write half of
// the hot-key fix: the read cache absorbs a hot key's reads, but every
// one of its writes still lands on the one owner set the ring picks.
// With spreading on, a key the cluster's write-frequency sketch promotes
// is split across salted storage keys - each hashing to its own owner
// set - writes round-robin the salts, and reads fan in across them,
// folding to the newest version by replica-wide stamp. Promotion is
// cluster-level state (like the ring), so every client salts and fans
// in consistently; it is sticky for the deployment's lifetime. The zero
// value disables spreading.
type HotWriteOptions struct {
	// Enable turns write spreading on for the deployment.
	Enable bool
	// PromoteMin is the cluster write-sketch estimate at which a key's
	// writes start round-robining (default 16).
	PromoteMin uint32
	// salts, when non-zero, replaces the default 4 shards a promoted
	// key's writes are spread over, counting the unsalted base key
	// (tests); a single-byte salt suffix allows at most 9.
	salts int
}

// withDefaults returns o with every unset field at its default.
func (o HotWriteOptions) withDefaults() HotWriteOptions {
	o.salts = min(cmp.Or(o.salts, 4), 9)
	o.PromoteMin = cmp.Or(o.PromoteMin, 16)
	return o
}

// HotWriteStats counts the deployment's write-spreading activity.
type HotWriteStats struct {
	// Promoted counts keys the write sketch has split across salts.
	Promoted int
	// SaltedWrites and SaltedReads count operations against spread keys:
	// writes that round-robined a salt, reads that went through the
	// targeted-shard path.
	SaltedWrites, SaltedReads uint64
	// SaltedFanIns counts reads that fell back to the full fan-in across
	// every salt - no acked write on record, or the targeted shard served
	// a copy older than the acked stamp.
	SaltedFanIns uint64
}

// saltedKey returns the storage key for one shard of a spread key: salt
// 0 is the key itself (so pre-promotion data stays reachable), salt i>0
// appends a suffix starting with NUL - a byte no text-protocol key can
// contain, so salted shards can never collide with client keys.
func saltedKey(key []byte, salt int) []byte {
	if salt == 0 {
		return key
	}
	return appendSaltedKey(nil, key, salt)
}

// appendSaltedKey appends shard salt's storage key of key to dst.
func appendSaltedKey(dst, key []byte, salt int) []byte {
	dst = append(dst, key...)
	if salt == 0 {
		return dst
	}
	return append(dst, 0, '#', byte('0'+salt))
}
