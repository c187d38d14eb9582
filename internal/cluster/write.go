package cluster

import (
	"math/bits"
	"slices"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/freelist"
	"ebbrt/internal/sim"
)

// Set stores key=value on every replica and invokes cb once the write
// quorum (a majority of the replica set) has acknowledged. A write that
// cannot reach quorum reports StatusNetworkError; it may still have
// landed on a minority of replicas - the usual leaderless-write
// semantics, converged by read repair. During a migration handoff the
// write is delivered to the union of old and new owners but the quorum
// is counted over the new owners, and a write issued before the handoff
// opened re-sends itself to the new owners, so an acked write survives
// the range's cutover.
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
	// spreading successive writes across distinct owner sets; on the
	// quorum ack the record notes which salt now holds the newest acked
	// version, so reads target that one shard.
	stamp := cli.cl.nextStamp()
	skey, salt, spread := cli.cl.writeSaltFor(key)
	rec := cli.rep(c).newWrite(key, skey, spread)
	rec.cb, rec.salt = cb, salt
	rec.stamp, rec.flags, rec.expires = stamp, flags, expires
	rec.deletes = cli.cl.deletes
	if cli.opt.HotKey.Enable {
		// Coherence, write path: drop every core's cached copy now (a
		// read racing the write must not see the old value from this
		// client), then re-stamp on the quorum ack. Pure invalidation
		// would instead evict the hottest keys ~10 times per second of
		// Zipf write traffic per core, capping the hit rate the cache
		// exists to provide.
		rec.fanOut(c, false)
		rec.restamps = true
	}
	rec.value = append(rec.value[:0], value...)
	rec.submit(c)
}

// Delete removes key from every replica, acking on quorum. A replica
// that never held the key counts as acknowledged - absence is the state
// the operation establishes. The Delete carries a stamp, minted like a
// Set's: a replica keeps an entry with a newer stamp, so a Delete that
// lands after a Set issued later does not erase it, and otherwise leaves
// a tombstone at that stamp, so a Set issued earlier that lands after it
// is a no-op.
//
// Every Delete also goes into the cluster's delete log
// (Cluster.deletedSince) for what no tombstone orders - a hint replay,
// which may come after the tombstone is gone, and a hot-key fill or
// re-stamp, which reach no replica: issued before a Delete of their key,
// by any client, they stand down.
func (cli *Client) Delete(c *event.Ctx, key []byte, cb Callback) {
	stamp := cli.cl.nextStamp()
	rep := cli.rep(c)
	salts := cli.cl.saltsOf(key)
	if salts > 1 {
		// A write-spread key lives under every salt: absence must be
		// established at all of them, or a later fan-in read would fold
		// the surviving salt's copy right back. The targeted-read record
		// stands down too - there is no "latest written shard" to serve
		// after a delete, so reads fan in until a new write acks.
		cli.cl.noteSaltDelete(key)
		cb = (&deleteFold{left: salts, cb: cb}).add
	}
	for s := range salts {
		sk := saltedKey(key, s)
		rec := rep.newWrite(sk, sk, false)
		rec.del, rec.stamp, rec.cb = true, stamp, cb
		if s == 0 && cli.opt.HotKey.Enable {
			rec.fanOut(c, false) // salt 0 is the key itself
		}
		cli.cl.noteDelete(sk)
		rec.submit(c)
	}
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

// quorumFold aggregates one write's per-replica acknowledgments into a
// verdict: success at a majority of the quorum members, failure as soon
// as a majority can no longer be reached. Answers after the verdict are
// ignored.
//
// The reported response's CAS is the MAXIMUM stamp echoed across the
// acknowledging replicas, folded monotonically as acks arrive: replicas
// echo the winning stamp under the stamped store rule, so a fold above
// the write's own stamp means some replica already held a newer
// concurrent write. The fold mirrors the cache's CAS-monotonic rule at
// the replica-stamp level - acks are network deliveries with no
// ordering guarantee, and an older stamp arriving after a newer one
// must never roll the fold back.
type quorumFold struct {
	need   int
	total  int
	acks   int
	fails  int
	done   bool
	first  Response // the last OK acknowledgment, else the first one
	maxCAS uint64   // monotonic max of acked replicas' echoed stamps
}

func newQuorumFold(total int) quorumFold {
	return quorumFold{need: total/2 + 1, total: total}
}

// add folds one quorum member's answer, acked or not, and reports the
// verdict once it is reached: ok is true exactly once.
func (q *quorumFold) add(r Response, acked bool) (verdict Response, ok bool) {
	if q.done {
		return Response{}, false
	}
	if acked {
		q.maxCAS = max(q.maxCAS, r.CAS)
		if q.acks == 0 || r.OK() {
			q.first = r
		}
		q.acks++
	} else {
		q.fails++
	}
	switch {
	case q.acks >= q.need:
		q.done = true
		verdict = q.first
		verdict.CAS = max(verdict.CAS, q.maxCAS)
		return verdict, true
	case q.fails > q.total-q.need:
		q.done = true
		return Response{Status: StatusNetworkError}, true
	}
	return Response{}, false
}

// writeRecord is one quorum write in flight - a Set, a Delete, or one
// salt of a write-spread key's Delete - pooled on the submitting core's
// representative. Its states: the hot-key invalidation (synchronous on
// this core, spawned onto the others), submitted to every target of the
// write plan, folding the quorum members' acks, and at the verdict the
// audit, the hot-key re-stamp, the salt note and the caller, in that
// order. Targets outside the quorum (a handoff's old owners) are sent
// the write with no callback.
//
// A write planned before a handoff window opened went to the old owners
// only, maybe after the migration stream's snapshot: at its first answer
// while the window covers its key, it goes once more to the key's new
// owners, with no callback (resend). A write answered in full before the
// window opened landed before any snapshot.
//
// A quorum member whose copy fails in the network leaves a hint
// (hint.go) once the Set is acknowledged: lost marks those members until
// then.
//
// The record goes home when nothing can touch it any more: refs counts
// the submit, each quorum member's ack still to come and each fan-out
// event spawned onto another core. Acks keep arriving after the verdict
// and spawned events run after the call returns, so the last of them -
// possibly on another core of the same client - puts it back on the
// submitting core's list.
type writeRecord struct {
	freelist.Node
	rep *clientRep
	// acks[i] is the callback quorum member i's request carries;
	// invalidate and restamp are the handlers the hot-key fan-out spawns
	// onto the client's other cores. Each is bound once, when the record
	// is made or first has that many members.
	acks       []Callback
	invalidate event.Handler
	restamp    event.Handler
	refs       int
	// key is the storage key, copied once (a salted shard's for a spread
	// write), and hash its ringHash. user is the key the caller named -
	// key itself unless the write is spread, then a copy in userBuf - and
	// uhash its hash: the hot-key cache and the salt note use them.
	key     []byte
	hash    uint64
	user    []byte
	userBuf []byte
	uhash   uint64
	// targets is the write plan (in owners unless a large R spills it);
	// its first quorum members decide the verdict, through fold. ho is
	// the handoff window open when the plan was made or the write last
	// re-sent, nil if none.
	targets  []int
	ho       *handoffState
	owners   [8]int
	fold     quorumFold
	del      bool   // a Delete: a replica's "not found" acknowledges
	setAcked bool   // a Set whose quorum acknowledged it
	lost     uint64 // bit i: quorum member i's copy failed, no hint kept yet
	// The write's stamp, and a Set's flags and deadline; salt is its shard
	// when spread. deletes is the cluster's delete count when the Set was
	// issued.
	stamp   uint64
	deletes uint64
	flags   uint32
	expires sim.Time
	spread  bool
	salt    int
	// restamps re-admits the acknowledged value into the hot-key caches,
	// unless the key was deleted after the Set was issued. value is a
	// Set's value, copied into the record's reusable buffer; each core's
	// cache and each hint copies it into its own.
	restamps bool
	value    []byte
	cb       Callback
}

func newWriteRecord(rep *clientRep) *writeRecord {
	rec := &writeRecord{rep: rep}
	rec.targets = rec.owners[:0]
	rec.invalidate = rec.onInvalidate
	rec.restamp = rec.onRestamp
	return rec
}

// newWrite takes a record from the core's list for a write of key,
// stored under skey: the same key unless the write is spread. The record
// holds one reference, the submit's.
func (r *clientRep) newWrite(key, skey []byte, spread bool) *writeRecord {
	rec := r.writes.Get()
	rec.refs = 1
	rec.key = append(rec.key[:0], skey...)
	rec.hash = ringHash(skey)
	rec.user, rec.uhash, rec.spread = rec.key, rec.hash, spread
	if spread {
		rec.userBuf = append(rec.userBuf[:0], key...)
		rec.user, rec.uhash = rec.userBuf, ringHash(key)
	}
	return rec
}

// request is the write as the wire carries it: a stamped Set with its
// absolute deadline, or a stamped Delete.
func (rec *writeRecord) request() memcached.Request {
	if rec.del {
		return memcached.Request{Opcode: memcached.OpDelete, Key: rec.key, CAS: rec.stamp}
	}
	return memcached.SetAbsExpiryRequest(rec.key, rec.value, rec.flags, rec.stamp, int64(rec.expires))
}

// submit sends the write to every target of the record's write plan,
// quorum members with the record's ack, then lets go of the submit's
// reference. An ack may arrive during the loop (a backend evicted since
// the plan was made fails at once); the submit's reference keeps the
// record live until the loop is done.
func (rec *writeRecord) submit(c *event.Ctx) {
	cl := rec.rep.cli.cl
	targets, quorum := cl.appendWritePlan(rec.targets[:0], rec.hash)
	rec.targets, rec.fold, rec.ho = targets, newQuorumFold(quorum), cl.handoff
	rec.refs += quorum
	for i := len(rec.acks); i < quorum; i++ {
		rec.acks = append(rec.acks, func(c *event.Ctx, r Response) { rec.onAck(c, i, r) })
	}
	req := rec.request()
	for i, backend := range rec.targets {
		var done Callback
		if i < quorum {
			done = rec.acks[i]
		}
		rec.rep.submit(c, backend, req, done)
	}
	rec.release()
}

// resend sends the write, with no callback, to the owners of its key on
// the live ring that its plan left out: the new owners of a handoff
// window ho that opened after the plan was made.
func (rec *writeRecord) resend(c *event.Ctx, ho *handoffState) {
	rec.ho = ho
	cl := rec.rep.cli.cl
	var owners [8]int
	for _, b := range cl.Ring.appendOwners(owners[:0], rec.hash, cl.Replicas) {
		if !slices.Contains(rec.targets, b) {
			rec.rep.submit(c, b, rec.request(), nil)
		}
	}
}

// onAck re-sends a write planned before the handoff window now open
// over its key, folds quorum member i's answer, keeps a hint for each
// member an acknowledged Set missed, and at the verdict runs what the
// write owes: the audit of a failed quorum, the re-stamp of the hot-key
// caches when the fold is the write's own stamp, the salt note, and the
// caller.
func (rec *writeRecord) onAck(c *event.Ctx, i int, r Response) {
	rec.Live()
	if ho := rec.rep.cli.cl.handoff; ho != rec.ho && ho != nil && ho.covers(rec.hash) {
		rec.resend(c, ho)
	}
	acked := r.OK() || rec.del && r.Status == memcached.StatusKeyNotFound
	if r.NetworkError() && !rec.del && i < 64 {
		rec.lost |= 1 << i
	}
	v, verdict := rec.fold.add(r, acked)
	rec.setAcked = rec.setAcked || verdict && v.OK() && !rec.del
	if rec.setAcked {
		for ; rec.lost != 0; rec.lost &= rec.lost - 1 {
			rec.rep.keepHint(c, rec.targets[bits.TrailingZeros64(rec.lost)], rec)
		}
	}
	if verdict {
		cli := rec.rep.cli
		if a := cli.cl.Audit; a != nil && v.NetworkError() {
			a.Emit(c.Now(), int(cli.node.Id), audit.QuorumWriteFail, audit.Fields{
				"key": string(rec.key),
			})
		}
		// The quorum ack folds the maximum stamp any replica echoed.
		// Re-stamp the cache only when that fold is our own stamp: a
		// larger fold means a concurrent writer superseded this value
		// before it was even acked, and caching it - under either stamp
		// - would pin a stale value at the newer version number, which
		// revalidation could then never catch.
		if rec.restamps && v.OK() && v.CAS == rec.stamp {
			rec.fanOut(c, true)
		}
		if rec.spread && v.OK() {
			cli.cl.noteSaltAck(rec.user, rec.salt, rec.stamp)
		}
		if rec.cb != nil {
			rec.cb(c, v)
		}
	}
	rec.release()
}

// fanOut invalidates (or re-stamps) the write's key in every core's
// hot-key cache: synchronously on this core, whose state must change
// before the caller's next operation, and by one spawned event on each
// other core, in core order, each holding a reference. Cores that never
// faulted the client in are skipped when the event runs.
func (rec *writeRecord) fanOut(c *event.Ctx, restamp bool) {
	self, h := c.Core().ID, rec.invalidate
	if restamp {
		h = rec.restamp
	}
	rec.hotKey(c, restamp)
	for corei, mgr := range rec.rep.cli.mgrs {
		if corei != self {
			rec.refs++
			mgr.Spawn(h)
		}
	}
}

func (rec *writeRecord) onInvalidate(c *event.Ctx) {
	rec.Live()
	rec.hotKey(c, false)
	rec.release()
}

func (rec *writeRecord) onRestamp(c *event.Ctx) {
	rec.Live()
	rec.hotKey(c, true)
	rec.release()
}

// hotKey applies the fan-out to c's core. Invalidation drops the key's
// cached copy - the write-path half of the coherence rule; the other
// cores' drops are a window also covered by the TTL bound. A re-stamp
// admits the acknowledged value, stamped with the CAS the write
// carried, but only where the core's own sketch has promoted the key - a
// write to a cold key must not displace hot entries - and it stands down
// if the key's range went mid-migration or the delete log holds a Delete
// of the key issued after the Set, by any client on any core.
func (rec *writeRecord) hotKey(c *event.Ctx, restamp bool) {
	cli := rec.rep.cli
	rep, ok := cli.ref.GetIfPresent(c.Core().ID)
	if !ok || rep.hot == nil {
		return
	}
	hk := rep.hot
	if !restamp {
		if hk.cache.invalidate(rec.user, rec.uhash) {
			hk.stats.Invalidations++
			if a := cli.cl.Audit; a != nil {
				a.Emit(c.Now(), int(cli.node.Id), audit.HotKeyInvalidated, audit.Fields{
					"key": string(rec.user), "core": c.Core().ID,
				})
			}
		}
		return
	}
	if cli.cl.deletedSince(rec.deletes, rec.uhash) || cli.handoffCovers(rec.user, rec.uhash) {
		return
	}
	if hk.sketch.estimate(rec.uhash) < hk.opt.PromoteMin {
		return
	}
	hk.cache.put(rec.user, rec.uhash, rec.value, rec.flags, rec.stamp, rec.expires, c.Now())
}

// release lets go of one reference; the last sends the record home.
func (rec *writeRecord) release() {
	rec.Live()
	if rec.refs--; rec.refs > 0 {
		return
	}
	rec.key, rec.user, rec.userBuf = rec.key[:0], nil, rec.userBuf[:0]
	rec.targets, rec.ho, rec.fold, rec.del = rec.targets[:0], nil, quorumFold{}, false
	rec.setAcked, rec.lost = false, 0
	rec.stamp, rec.flags, rec.expires, rec.spread, rec.salt = 0, 0, 0, false, 0
	rec.deletes, rec.restamps, rec.value = 0, false, rec.value[:0]
	rec.cb = nil
	rec.rep.writes.Put(rec)
}
