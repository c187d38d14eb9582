package cluster

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/freelist"
	"ebbrt/internal/hosted"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// StatusNetworkError is the client-synthesized status reporting that an
// operation could not be completed because the connection failed, the
// request timed out, or a write could not reach its quorum. It lives
// outside the server's status space: a network failure is not a cache
// miss, and conflating the two (as the client once did) turns every
// backend crash into a burst of false misses instead of failovers.
const StatusNetworkError uint16 = 0xff00

// Response is the outcome of one cluster operation.
type Response struct {
	Status uint16
	Flags  uint32
	Value  []byte
	// CAS is the entry's compare-and-swap stamp echoed in the server's
	// response header (the owner's Entry.CAS on reads, the newly stamped
	// value on stores). The hot-key cache uses it as the coherence
	// version for cached values.
	CAS uint64
	// ExpiresAt is the entry's absolute expiry carried in GET response
	// extras (0 = never expires). The hot-key cache stores it so a
	// cached value dies at the origin's deadline, not its own TTL.
	ExpiresAt sim.Time
}

// OK reports protocol success.
func (r Response) OK() bool { return r.Status == memcached.StatusOK }

// NetworkError reports that the operation failed in the network or at a
// quorum, not at the store; the caller may retry.
func (r Response) NetworkError() bool { return r.Status == StatusNetworkError }

// Callback receives an operation's response on the submitting core.
type Callback func(c *event.Ctx, r Response)

// defaultPoolSize is the per-core, per-backend connection count.
const defaultPoolSize = 2

// ClientOptions tunes the client Ebb beyond the defaults.
type ClientOptions struct {
	// RequestTimeout bounds one replica operation; on expiry the
	// operation fails with StatusNetworkError and, for reads, fails over
	// to the next replica. Zero disables timeouts: operations then fail
	// only on connection teardown or ring eviction. Keep it well above
	// the netstack RTO when frame loss (rather than node death) is
	// expected, or retransmitted requests will be reported dead.
	RequestTimeout sim.Time
	// HotKey configures the per-core hot-key read cache. When left
	// disabled the client inherits the cluster's Options.HotKey; set
	// HotKey.Disable to keep the cache off regardless.
	HotKey HotKeyOptions
	// Batch tunes the read-submission queue that coalesces same-backend
	// reads into pipelined GETQ+Noop rounds. The zero value batches only
	// within one GetMulti call (MaxBatch DefaultMaxBatch); MaxBatch 1
	// reverts every read to its own plain GET.
	Batch BatchOptions
	// poolSize, when non-zero, replaces defaultPoolSize (tests).
	poolSize int
}

// Client is the cluster-aware memcached client Ebb. Its id lives in the
// deployment-wide namespace (allocated by the frontend); each core that
// touches it faults in its own representative holding private
// connection pools to every backend, so request submission never
// crosses cores - the Ebb pattern of paper §3.1 applied client-side.
//
// Under replication (Cluster.Replicas > 1) the client is where fault
// tolerance lives: writes fan out to every replica and ack on a
// majority quorum; reads try the primary and fail over along the
// replica set on network error or miss. When the cluster evicts a dead
// backend, every representative aborts its pooled connections to it so
// in-flight operations fail over immediately instead of waiting out TCP
// retransmission.
type Client struct {
	cl   *Cluster
	node *hosted.Node
	ref  core.Ref[clientRep]
	opt  ClientOptions
	mgrs []*event.Manager
	// tombGen counts this client's Deletes. Hot-key fills and re-stamps
	// capture it when their operation is issued and stand down if it
	// moved by completion: a response racing any of this client's
	// Deletes - from any core - must not resurrect the deleted value
	// (absence has no CAS for the cache's monotonic put guard to
	// compare against). One client-wide counter rather than per-core
	// state: a Delete on core B must also stand down a re-stamp another
	// core's ack is about to spawn onto B.
	tombGen uint64
}

// NewClient installs a client Ebb for the cluster on the given node
// (typically the hosted frontend) under the default options.
func NewClient(cl *Cluster, node *hosted.Node) *Client {
	return NewClientWithOptions(cl, node, ClientOptions{})
}

// NewClientWithOptions installs a client Ebb with explicit options.
func NewClientWithOptions(cl *Cluster, node *hosted.Node, opt ClientOptions) *Client {
	opt.poolSize = cmp.Or(opt.poolSize, defaultPoolSize)
	if !opt.HotKey.Enable && !opt.HotKey.Disable {
		opt.HotKey = cl.HotKey
	}
	if opt.HotKey.Disable {
		opt.HotKey = HotKeyOptions{}
	}
	if opt.HotKey.Enable {
		opt.HotKey = opt.HotKey.withDefaults()
	}
	opt.Batch = opt.Batch.WithDefaults()
	cli := &Client{cl: cl, node: node, opt: opt}
	id := cl.Sys.AllocateEbbId()
	mgrs := node.Runtime.Mgrs()
	cli.mgrs = mgrs
	cli.ref = core.Attach(node.Domain, id, func(corei int) *clientRep {
		return newClientRep(cli, mgrs[corei])
	})
	if opt.HotKey.Enable {
		// A migration's dual-routing window must never serve a cached
		// value that predates it: flush every core's entries covered by
		// the moved ranges as the window opens (reads inside the window
		// additionally bypass the cache, closing the spawn race).
		cl.WatchHandoff(func(pending []MoveRange) {
			ranges := append([]MoveRange(nil), pending...)
			for corei := range mgrs {
				corei := corei
				mgrs[corei].Spawn(func(c *event.Ctx) {
					rep, ok := cli.ref.GetIfPresent(corei)
					if !ok || rep.hot == nil {
						return
					}
					n := rep.hot.cache.flushWhere(func(e *cacheEntry) bool {
						covered := func(h uint64) bool {
							for _, r := range ranges {
								if r.Contains(h) {
									return true
								}
							}
							return false
						}
						if covered(e.hash) {
							return true
						}
						// A write-spread key's salted shards hash elsewhere
						// than the entry itself; a moved shard also makes
						// the cached copy unsafe across the cutover.
						for s := 1; s < cli.cl.saltsOf([]byte(e.key)); s++ {
							if covered(ringHash(saltedKey([]byte(e.key), s))) {
								return true
							}
						}
						return false
					})
					rep.hot.stats.Flushes += uint64(n)
				})
			}
		})
	}
	cl.Watch(func(backend int, up bool) {
		if up {
			return // pools to a restored backend re-dial lazily
		}
		for corei := range mgrs {
			corei := corei
			mgrs[corei].Spawn(func(c *event.Ctx) {
				if rep, ok := cli.ref.GetIfPresent(corei); ok {
					rep.dropBackend(c, backend)
				}
			})
		}
	})
	return cli
}

// Id returns the Ebb id the client occupies in the shared namespace.
func (cli *Client) Id() core.Id { return cli.ref.Id() }

// probeStaleness compares a served cache hit against the owner stores
// directly - simulation-level introspection (like Cluster.LiveHolders),
// recording how stale served values actually get so experiments can
// verify the TTL bound. It peeks every live replica of every salted
// shard: stamps are replica-wide, so the newest stamp any live owner
// holds is the latest durable version, and a served hit is stale
// exactly when that stamp is newer than the cached one (or the key was
// deleted everywhere).
func (cli *Client) probeStaleness(c *event.Ctx, hk *hotKeyRep, key []byte, e *cacheEntry) {
	var newest uint64
	found := false
	for s := 0; s < cli.cl.saltsOf(key); s++ {
		sk := saltedKey(key, s)
		for _, bi := range cli.cl.ReplicaSet(sk) {
			b := cli.cl.Backends[bi]
			if !cli.cl.Live(bi) || !b.Node.Alive() {
				continue
			}
			// An entry past its expiry (or behind a due flush) is not a
			// durable version: a hit matching only a dead copy is stale.
			if cur, ok := b.Srv.Store.Get(string(sk)); ok && b.Srv.EntryLive(cur, c.Now()) {
				found = true
				if cur.CAS > newest {
					newest = cur.CAS
				}
			}
		}
	}
	if found && newest <= e.cas {
		return
	}
	hk.stats.StaleServes++
	if age := c.Now() - e.storedAt; age > hk.stats.MaxStaleAge {
		hk.stats.MaxStaleAge = age
	}
}

// maybeRevalidate samples one in revalidateEvery cache hits for an
// asynchronous CAS check against the replica set: if the owner's stamp
// moved, the cached copy is re-stamped with the fresh value (or dropped
// on a miss). Together with the TTL this bounds how long another
// client's write can go unseen.
func (cli *Client) maybeRevalidate(c *event.Ctx, rep *clientRep, key []byte) {
	hk := rep.hot
	if hk.opt.revalidateEvery <= 0 {
		return
	}
	hk.sinceReval++
	if hk.sinceReval < hk.opt.revalidateEvery {
		return
	}
	hk.sinceReval = 0
	hk.stats.Revalidations++
	keyCopy := append([]byte(nil), key...)
	rec := rep.newRead(key)
	rec.cb = func(c *event.Ctx, r Response) {
		cur, ok := hk.cache.m[string(keyCopy)]
		if !ok {
			return // evicted or invalidated while the check was in flight
		}
		switch {
		case r.OK() && r.CAS > cur.cas:
			// Stamps are monotonic (and, being replica-wide, comparable no
			// matter which replica answered), so only a strictly newer
			// response may replace the entry - a reordered older read
			// (overtaken by a write-path re-stamp) must not roll it back
			// or reset its TTL clock onto stale data.
			if cli.handoffCovers(keyCopy, ringHash(keyCopy)) {
				hk.cache.remove(cur)
				return
			}
			hk.stats.Refreshes++
			cur.value = append([]byte(nil), r.Value...)
			cur.flags = r.Flags
			cur.cas = r.CAS
			cur.expiresAt = r.ExpiresAt
			cur.storedAt = c.Now()
		case r.OK() && r.CAS == cur.cas:
			cur.storedAt = c.Now() // confirmed fresh: restart the TTL clock
		case r.Status == memcached.StatusKeyNotFound:
			hk.cache.remove(cur)
		}
	}
	cli.fetch(c, rec)
}

// forEachHotRep runs fn against every core's hot-key representative:
// synchronously on the submitting core (its state must change before
// the caller's next operation), via spawned events on the rest. fn
// receives the key bytes valid on its core (the spawned copies own
// their slice). Cores that never faulted the client in are skipped.
func (cli *Client) forEachHotRep(c *event.Ctx, key []byte, fn func(c *event.Ctx, hk *hotKeyRep, key []byte)) {
	self := c.Core().ID
	if rep, ok := cli.ref.GetIfPresent(self); ok && rep.hot != nil {
		fn(c, rep.hot, key)
	}
	keyCopy := append([]byte(nil), key...)
	for corei := range cli.mgrs {
		if corei == self {
			continue
		}
		corei := corei
		cli.mgrs[corei].Spawn(func(c *event.Ctx) {
			if rep, ok := cli.ref.GetIfPresent(corei); ok && rep.hot != nil {
				fn(c, rep.hot, keyCopy)
			}
		})
	}
}

// invalidateHot drops key's cached copy on every core of the client -
// the write-path half of the coherence rule. The submitting core is
// handled synchronously (its next read must not see the old value);
// other cores are invalidated via spawned events, a window also covered
// by the TTL bound.
//
// tombstone marks a Delete: those additionally bump the client's
// tombstone generation, standing down in-flight fills and re-stamps on
// every core that would otherwise resurrect the deleted value
// (overwrites don't need the generation because a re-stamp always
// carries a newer CAS than any racing stale fill).
func (cli *Client) invalidateHot(c *event.Ctx, key []byte, tombstone bool) {
	if !cli.opt.HotKey.Enable {
		return
	}
	if tombstone {
		cli.tombGen++
	}
	cli.forEachHotRep(c, key, func(c *event.Ctx, hk *hotKeyRep, kb []byte) {
		if hk.cache.invalidate(kb) {
			hk.stats.Invalidations++
			if a := cli.cl.Audit; a != nil {
				a.Emit(c.Now(), int(cli.node.Id), audit.HotKeyInvalidated, audit.Fields{
					"key": string(kb), "core": c.Core().ID,
				})
			}
		}
	})
}

// restampHot re-admits an acknowledged write into each core's cache,
// stamped with the CAS the server assigned it. Only keys the core's own
// sketch has promoted are admitted - a write to a cold key must not
// displace hot entries. Every re-stamp (the ack core's synchronous one
// and the spawned cross-core ones alike) stands down if its range went
// mid-migration or the client issued a delete tombstone after the write
// - gen is sampled at submit, so a Delete from ANY core during the
// write's flight suppresses resurrection everywhere.
func (cli *Client) restampHot(c *event.Ctx, key, value []byte, flags uint32, cas uint64, expiresAt sim.Time, gen uint64) {
	h := ringHash(key)
	cli.forEachHotRep(c, key, func(c *event.Ctx, hk *hotKeyRep, kb []byte) {
		if cli.tombGen != gen || cli.handoffCovers(kb, h) {
			return
		}
		if hk.sketch.estimate(h) < hk.opt.PromoteMin {
			return
		}
		hk.cache.put(kb, h, value, flags, cas, expiresAt, c.Now())
	})
}

// HotKeyStats sums the hot-key cache counters across the client's
// per-core representatives.
func (cli *Client) HotKeyStats() HotKeyStats {
	var out HotKeyStats
	for corei := range cli.mgrs {
		if rep, ok := cli.ref.GetIfPresent(corei); ok && rep.hot != nil {
			out.accumulate(rep.hot.stats)
		}
	}
	return out
}

// BatchStats sums the read-submission queue counters across the
// client's per-core representatives.
func (cli *Client) BatchStats() BatchStats {
	var out BatchStats
	for corei := range cli.mgrs {
		if rep, ok := cli.ref.GetIfPresent(corei); ok {
			out.Accumulate(rep.queue.stats)
		}
	}
	return out
}

// Set stores key=value on every replica and invokes cb once the write
// quorum (a majority of the replica set) has acknowledged. A write that
// cannot reach quorum reports StatusNetworkError; it may still have
// landed on a minority of replicas - the usual leaderless-write
// semantics, converged by read repair. During a migration handoff the
// write is delivered to the union of old and new owners but the quorum
// is counted over the new owners, so an acked write is guaranteed to
// survive the range's cutover.
func (cli *Client) Set(c *event.Ctx, key, value []byte, flags uint32, cb Callback) {
	cli.SetWithExpiry(c, key, value, flags, 0, cb)
}

// SetWithExpiry is Set carrying a wire exptime (the stock rules: 0 =
// never, <= 30 days relative, > 30 days absolute unix time, negative =
// immediately expired). The coordinator resolves the exptime to an
// absolute virtual deadline ONCE, here, and every replica stores that
// exact instant - resolving per-replica would skew the deadline by each
// request's network delay, and replicas of one write must die together.
func (cli *Client) SetWithExpiry(c *event.Ctx, key, value []byte, flags uint32, exptime int64, cb Callback) {
	expires := memcached.AbsoluteExpiry(exptime, c.Now())
	// The write's version stamp is assigned HERE, once, by the
	// coordinator: every replica stores and echoes this exact stamp, so
	// any replica's answer to a later read carries a comparable version.
	// For a write-spread hot key the cluster also round-robins the salt,
	// spreading successive writes across distinct owner sets.
	stamp := cli.cl.nextStamp()
	skey, salt, spread := cli.cl.writeSaltFor(key)
	cli.cl.noteSet(skey)
	if spread {
		// On the quorum ack, record which salt now holds the newest acked
		// version (folded monotonically by stamp at the cluster): reads of
		// this key target that one shard instead of fanning in across all
		// of them.
		inner := cb
		cb = func(c *event.Ctx, r Response) {
			if r.OK() {
				cli.cl.noteSaltAck(key, salt, stamp)
			}
			if inner != nil {
				inner(c, r)
			}
		}
	}
	if cli.opt.HotKey.Enable {
		// Coherence, write path: drop every core's cached copy now (a
		// read racing the write must not see the old value from this
		// client), then re-stamp on the quorum ack. Pure invalidation
		// would instead evict the hottest keys ~10 times per second of
		// Zipf write traffic per core, capping the hit rate the cache
		// exists to provide.
		cli.invalidateHot(c, key, false)
		gen := cli.tombGen
		inner := cb
		valCopy := append([]byte(nil), value...)
		cb = func(c *event.Ctx, r Response) {
			// The quorum ack folds the maximum stamp any replica echoed.
			// Re-stamp the cache only when that fold is our own stamp: a
			// larger fold means a concurrent writer superseded this value
			// before it was even acked, and caching it - under either
			// stamp - would pin a stale value at the newer version number,
			// which revalidation could then never catch.
			if r.OK() && r.CAS == stamp {
				cli.restampHot(c, key, valCopy, flags, stamp, expires, gen)
			}
			if inner != nil {
				inner(c, r)
			}
		}
	}
	cli.quorumWrite(c, skey, cb, memcached.SetAbsExpiryRequest(skey, value, flags, stamp, int64(expires)),
		func(r Response) bool { return r.OK() })
}

// Delete removes key from every replica, acking on quorum. A replica
// that never held the key counts as acknowledged - absence is the state
// the operation establishes. A delete landing inside a still-migrating
// range is additionally recorded so the migrator scrubs any copy the
// in-flight stream's pre-delete snapshot resurrects at the destination.
func (cli *Client) Delete(c *event.Ctx, key []byte, cb Callback) {
	if cli.opt.HotKey.Enable {
		cli.invalidateHot(c, key, true)
	}
	salts := cli.cl.saltsOf(key)
	if salts <= 1 {
		cli.cl.noteDelete(key)
		cli.quorumWrite(c, key, cb, memcached.Request{Opcode: memcached.OpDelete, Key: key}, deleteAcked)
		return
	}
	// A write-spread key lives under every salt: absence must be
	// established at all of them, or a later fan-in read would fold the
	// surviving salt's copy right back. The targeted-read record stands
	// down too - there is no "latest written shard" to serve after a
	// delete, so reads fan in until a new write acks.
	cli.cl.noteSaltDelete(key)
	fold := &deleteFold{left: salts, cb: cb}
	for s := 0; s < salts; s++ {
		sk := saltedKey(key, s)
		cli.cl.noteDelete(sk)
		cli.quorumWrite(c, sk, fold.add, memcached.Request{Opcode: memcached.OpDelete, Key: sk}, deleteAcked)
	}
}

// deleteAcked is the quorum-ack predicate for deletes: a replica that
// never held the key counts as acknowledged - absence is the state the
// operation establishes.
func deleteAcked(r Response) bool {
	return r.OK() || r.Status == memcached.StatusKeyNotFound
}

// deleteFold aggregates a write-spread key's per-salt quorum deletes:
// success once every salt's quorum established absence, network error
// if any salt's quorum could not be reached (some shard may still hold
// a copy).
type deleteFold struct {
	left   int
	sawOK  bool
	sawErr bool
	cb     Callback
}

func (f *deleteFold) add(c *event.Ctx, r Response) {
	if r.OK() {
		f.sawOK = true
	}
	if r.NetworkError() {
		f.sawErr = true
	}
	f.left--
	if f.left > 0 || f.cb == nil {
		return
	}
	switch {
	case f.sawErr:
		f.cb(c, Response{Status: StatusNetworkError})
	case f.sawOK:
		f.cb(c, Response{Status: memcached.StatusOK})
	default:
		f.cb(c, Response{Status: memcached.StatusKeyNotFound})
	}
}

// quorumWrite fans a write out per the cluster's write plan: every
// target receives it, only quorum members' acknowledgments decide the
// outcome.
func (cli *Client) quorumWrite(c *event.Ctx, key []byte, cb Callback, req memcached.Request, acked func(Response) bool) {
	targets, quorum := cli.cl.WritePlan(key)
	if cli.cl.Audit != nil {
		keyCopy := append([]byte(nil), key...)
		inner := cb
		cb = func(c *event.Ctx, r Response) {
			if r.NetworkError() {
				if a := cli.cl.Audit; a != nil {
					a.Emit(c.Now(), int(cli.node.Id), audit.QuorumWriteFail, audit.Fields{
						"key": string(keyCopy),
					})
				}
			}
			if inner != nil {
				inner(c, r)
			}
		}
	}
	q := newQuorumCall(len(quorum), cb)
	for _, backend := range targets {
		var done Callback
		if containsBackend(quorum, backend) {
			done = func(c *event.Ctx, r Response) { q.add(c, r, acked(r)) }
		}
		cli.rep(c).submit(c, backend, req, done)
	}
}

func (cli *Client) rep(c *event.Ctx) *clientRep { return cli.ref.Get(c.Core().ID) }

// quorumCall aggregates one write's per-replica acknowledgments into a
// single callback: success at a majority of the replica set, failure as
// soon as a majority can no longer be reached. Late responses after the
// verdict are ignored.
//
// The reported response's CAS is the MAXIMUM stamp echoed across the
// acknowledging replicas, folded monotonically as acks arrive: replicas
// echo the winning stamp under the stamped store rule, so a fold above
// the write's own stamp means some replica already held a newer
// concurrent write. The fold mirrors the cache's CAS-monotonic rule at
// the replica-stamp level - acks are network deliveries with no
// ordering guarantee, and an older stamp arriving after a newer one
// must never roll the fold back.
type quorumCall struct {
	need   int
	total  int
	acks   int
	fails  int
	done   bool
	first  Response // first acknowledged response, reported on success
	sawOK  bool
	maxCAS uint64 // monotonic max of acked replicas' echoed stamps
	cb     Callback
}

func newQuorumCall(total int, cb Callback) *quorumCall {
	return &quorumCall{need: total/2 + 1, total: total, cb: cb}
}

func (q *quorumCall) add(c *event.Ctx, r Response, ack bool) {
	if q.done {
		return
	}
	if ack {
		if r.CAS > q.maxCAS {
			q.maxCAS = r.CAS
		}
		if q.acks == 0 {
			q.first = r
		}
		if r.OK() {
			q.sawOK = true
			q.first = r
		}
		q.acks++
	} else {
		q.fails++
	}
	if q.acks >= q.need {
		q.done = true
		if q.cb != nil {
			resp := q.first
			if q.maxCAS > resp.CAS {
				resp.CAS = q.maxCAS
			}
			q.cb(c, resp)
		}
		return
	}
	if q.fails > q.total-q.need {
		q.done = true
		if q.cb != nil {
			q.cb(c, Response{Status: StatusNetworkError})
		}
	}
}

// clientRep is one core's representative: private pools, no locks.
type clientRep struct {
	cli   *Client
	mgr   *event.Manager
	pools map[int]*backendPool
	// queue is the core's read-submission queue (batch.go): every read
	// passes through it, coalescing same-backend keys into rounds.
	queue *readQueue
	// hot is the core's hot-key sketch + cache (nil when disabled).
	hot *hotKeyRep
	// reads, rounds and batches are the core's free lists of key reads
	// in flight (read.go), multi-op rounds in flight on any of its
	// connections (batch.go), and GetMulti calls not yet answered.
	reads   freelist.List[*readRecord]
	rounds  freelist.List[*readRound]
	batches freelist.List[*multiGet]
}

func newClientRep(cli *Client, mgr *event.Manager) *clientRep {
	r := &clientRep{cli: cli, mgr: mgr, pools: map[int]*backendPool{}, queue: newReadQueue(cli.opt.Batch)}
	if cli.opt.HotKey.Enable {
		r.hot = newHotKeyRep(cli.opt.HotKey)
	}
	r.reads.New = func() *readRecord { return newReadRecord(r) }
	r.rounds.New = func() *readRound { return newReadRound(r) }
	r.batches.New = func() *multiGet { return &multiGet{rep: r} }
	return r
}

// backendPool is one core's connections to one backend.
type backendPool struct {
	conns []*clientConn
	next  int
}

// submit routes one request onto a pooled connection. Writes (and any
// other always-answered op) go through here directly; reads go through
// submitRead, which lands them here - via the coalescing queue - as
// whole rounds.
func (r *clientRep) submit(c *event.Ctx, backend int, req memcached.Request, cb Callback) {
	if !r.cli.cl.Servable(backend) {
		// The backend was evicted after this operation's replica set was
		// computed. Fail fast so the caller's failover moves on, rather
		// than re-dialing a dead node (which, with timeouts disabled,
		// would park the operation behind minutes of SYN backoff).
		if cb != nil {
			cb(c, Response{Status: StatusNetworkError})
		}
		return
	}
	r.connFor(c, backend).send(c, &req, cb)
}

// connFor picks the pooled connection the next request to backend rides
// on, dialing if the pool is below target size.
func (r *clientRep) connFor(c *event.Ctx, backend int) *clientConn {
	pool, ok := r.pools[backend]
	if !ok {
		pool = &backendPool{}
		r.pools[backend] = pool
	}
	// Grow the pool to its target size before multiplexing; drop
	// connections that closed under us and replace them.
	live := pool.conns[:0]
	for _, cc := range pool.conns {
		if !cc.closed {
			live = append(live, cc)
		}
	}
	pool.conns = live
	var cc *clientConn
	if len(pool.conns) < r.cli.opt.poolSize {
		cc = dialConn(c, r.cli.node.Runtime, r.cli.cl.Backends[backend].Node.IP(), r.mgr, r.cli.opt.RequestTimeout)
		pool.conns = append(pool.conns, cc)
	} else {
		cc = pool.conns[pool.next%len(pool.conns)]
		pool.next++
	}
	return cc
}

// dropBackend aborts every pooled connection to an evicted backend,
// failing its in-flight operations with StatusNetworkError so their
// callers fail over now rather than after TCP gives up.
func (r *clientRep) dropBackend(c *event.Ctx, backend int) {
	pool, ok := r.pools[backend]
	if !ok {
		return
	}
	delete(r.pools, backend)
	for _, cc := range pool.conns {
		cc.abort(c)
	}
}

// dialConn opens one connection from rt to the memcached port at ip.
// Requests may be written into it at once: they leave when the handshake
// completes, and then onConnect, if set, runs. With a positive timeout,
// mgr fails a request left unanswered that long.
func dialConn(c *event.Ctx, rt appnet.Runtime, ip netstack.Ipv4Addr, mgr *event.Manager, timeout sim.Time) *clientConn {
	cc := &clientConn{
		mgr:      mgr,
		timeout:  timeout,
		inflight: map[uint32]inflightOp{},
	}
	rt.Dial(c, ip, memcached.Port, appnet.Callbacks{
		OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
			cc.onData(c, payload)
		},
		OnClose: func(c *event.Ctx, conn appnet.Conn, err error) {
			cc.fail(c)
		},
	}, func(c *event.Ctx, conn appnet.Conn) {
		cc.conn = conn
		cc.connected = true
		cc.tx.Pool, _ = appnet.PoolsOf(conn)
		for _, pkt := range cc.pendingTx {
			conn.Send(c, pkt)
		}
		cc.pendingTx = nil
		if cc.onConnect != nil {
			cc.onConnect(c)
		}
	})
	return cc
}

// inflightOp is one outstanding request: its completion callback plus
// the timeout timer that fires it as a network error if no response
// arrives in time.
type inflightOp struct {
	cb    Callback
	timer event.Timer
}

// clientConn multiplexes requests over one TCP connection, matching
// responses to callbacks by opaque. Requests are written into payload
// elements of the connection's interface (plain ones until it connects),
// each whole in one, and the connection frees them once it is done.
type clientConn struct {
	conn       appnet.Conn
	mgr        *event.Manager
	timeout    sim.Time
	connected  bool
	closed     bool
	tx         iobuf.Frames   // the packet being written
	pendingTx  []*iobuf.IOBuf // packets written before the handshake completed
	inflight   map[uint32]inflightOp
	nextOpaque uint32
	rx         iobuf.Stream
	onConnect  func(c *event.Ctx)
}

func (cc *clientConn) send(c *event.Ctx, req *memcached.Request, cb Callback) int {
	cc.write(req, cc.register(c, cb))
	return cc.transmit(c)
}

// write appends one request frame to the packet being written.
func (cc *clientConn) write(req *memcached.Request, opaque uint32) {
	req.Put(cc.tx.Next(req.Len()), opaque)
}

// register allocates an opaque for one request, installs its callback
// and timeout timer, and returns the opaque for the caller to encode.
// Splitting registration from transmission is what lets sendRound write
// a whole GETQ round into one coalesced packet.
func (cc *clientConn) register(c *event.Ctx, cb Callback) uint32 {
	opaque := cc.nextOpaque
	cc.nextOpaque++
	op := inflightOp{cb: cb}
	if cc.timeout > 0 && cc.mgr != nil {
		op.timer = cc.mgr.After(cc.timeout, func(c *event.Ctx) {
			cur, ok := cc.inflight[opaque]
			if !ok {
				return
			}
			delete(cc.inflight, opaque)
			if cur.cb != nil {
				cur.cb(c, Response{Status: StatusNetworkError})
			}
		})
	}
	cc.inflight[opaque] = op
	return opaque
}

// transmit sends the packet written (one request, or one coalesced
// round), queueing it if the connection is still handshaking, and
// returns its size.
func (cc *clientConn) transmit(c *event.Ctx) int {
	pkt := cc.tx.Take()
	n := pkt.ComputeChainDataLength()
	if !cc.connected {
		cc.pendingTx = append(cc.pendingTx, pkt)
		return n
	}
	cc.conn.Send(c, pkt)
	return n
}

// fail reports every outstanding operation as a network error - NOT a
// miss: the keys may well exist, the backend is just unreachable - and
// retires the connection from its pool. Operations fail in ascending
// opaque order, which is issue order: each callback may fail over or
// retry, so map iteration order here would leak into virtual time.
func (cc *clientConn) fail(c *event.Ctx) {
	cc.closed = true
	cc.connected = false
	for _, pkt := range cc.pendingTx {
		pkt.Free()
	}
	cc.pendingTx = nil
	for _, opaque := range slices.Sorted(maps.Keys(cc.inflight)) {
		op, ok := cc.inflight[opaque]
		if !ok {
			continue // resolved by a callback earlier in this loop
		}
		delete(cc.inflight, opaque)
		op.timer.Cancel()
		if op.cb != nil {
			op.cb(c, Response{Status: StatusNetworkError})
		}
	}
}

// abort tears the connection down proactively (ring eviction of its
// backend), failing outstanding operations immediately.
func (cc *clientConn) abort(c *event.Ctx) {
	if cc.closed {
		return
	}
	cc.fail(c)
	if cc.conn != nil {
		cc.conn.Close(c)
	}
}

// onData reassembles the response stream and dispatches callbacks. A
// malformed or wrong-magic response means the stream is desynced and
// can never recover: the connection is torn down and every outstanding
// operation fails, rather than wedging silently.
func (cc *clientConn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	data := cc.rx.Take(payload)
	consumed := 0
	for {
		hdr, body, n, err := memcached.NextFrame(data[consumed:], memcached.MagicResponse)
		if err != nil {
			cc.rx = iobuf.Stream{}
			if cc.conn != nil {
				cc.conn.Close(c)
			}
			cc.fail(c)
			return
		}
		if n == 0 {
			cc.rx.Keep(data, consumed, hdr.Reserve())
			return
		}
		consumed += n
		op, ok := cc.inflight[hdr.Opaque]
		if !ok {
			continue // timed out; the caller has already failed over
		}
		delete(cc.inflight, hdr.Opaque)
		op.timer.Cancel()
		if op.cb == nil {
			continue
		}
		resp := Response{Status: hdr.Status, CAS: hdr.CAS}
		if hdr.ExtrasLen >= 4 {
			resp.Flags = binary.BigEndian.Uint32(body)
		}
		if int(hdr.ExtrasLen) >= memcached.GetResponseExtrasLen {
			resp.ExpiresAt = sim.Time(int64(binary.BigEndian.Uint64(body[4:12])))
		}
		if len(body) > int(hdr.ExtrasLen) {
			resp.Value = append([]byte(nil), body[hdr.ExtrasLen:]...)
		}
		op.cb(c, resp)
	}
}
