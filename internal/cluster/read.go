package cluster

import (
	"slices"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/freelist"
	"ebbrt/internal/iobuf"
)

// Get fetches key, trying each replica in successor order: network
// errors and genuine misses both fall through to the next replica, so a
// key served by any live replica is found. When a later replica serves
// the read, replicas that missed it are repaired asynchronously. During
// a migration handoff the read set for a still-moving range is the old
// owners followed by the new ones, so the key is served wherever it
// currently lives.
//
// With the hot-key cache enabled, a key the frequency sketch has
// promoted is served from the core's local cache when a live (within
// TTL) copy is held, never touching the network; misses count the
// access toward promotion and fill the cache from the response once the
// key qualifies. Reads for ranges mid-migration bypass the cache
// entirely.
func (cli *Client) Get(c *event.Ctx, key []byte, cb Callback) {
	rep := cli.rep(c)
	rec := rep.newRead(key)
	rec.cb = cb
	rep.beginBatch()
	cli.getOne(c, rec)
	rep.endBatch(c)
}

// BatchCallback receives a GetMulti's responses, index-aligned with the
// requested keys, once every key has resolved. rs and every rs[i].Value
// are valid until the callback returns: they are the call's own slice
// and slot buffers, reused by a later GetMulti.
type BatchCallback func(c *event.Ctx, rs []Response)

// GetMulti fetches keys as one batch: each key takes the exact same
// path as Get - hot-key cache, handoff dual-read, replica failover,
// read repair - but keys bound for the same backend leave the core as
// one pipelined GETQ+Noop round instead of one GET apiece. cb fires
// once with all responses, index-aligned with keys; duplicate keys are
// answered independently. Failover retries for keys whose primary read
// failed go out immediately (as their own rounds) rather than waiting
// on the rest of the batch. The slice cb receives, and each value in it,
// is lent for the callback: a caller that keeps one copies it.
func (cli *Client) GetMulti(c *event.Ctx, keys [][]byte, cb BatchCallback) {
	if len(keys) == 0 {
		if cb != nil {
			cb(c, nil)
		}
		return
	}
	rep := cli.rep(c)
	b := rep.batches.Get()
	b.out, b.left, b.cb = slices.Grow(b.out[:0], len(keys))[:len(keys)], len(keys), cb
	if n := len(keys); len(b.vals) < n {
		b.vals = slices.Grow(b.vals, n-len(b.vals))[:n]
	}
	rep.beginBatch()
	for i, key := range keys {
		rec := rep.newRead(key)
		rec.batch, rec.slot = b, i
		cli.getOne(c, rec)
	}
	rep.endBatch(c)
}

// multiGet is one GetMulti in flight: the responses so far, index-aligned
// with the keys, and how many keys are still out. out and vals keep
// their capacity from call to call: vals[i] is slot i's value buffer,
// which out[i].Value views once the key has resolved.
type multiGet struct {
	freelist.Node
	rep  *clientRep
	out  []Response
	vals [][]byte
	left int
	cb   BatchCallback
}

// deliver files one key's response, copying its value into the slot's
// buffer: the answer is lent only for this call, and the batch answers
// later. The last one hands out to the caller, and the batch goes home
// once the caller's callback has returned.
func (b *multiGet) deliver(c *event.Ctx, slot int, r Response) {
	b.Live()
	if r.Value != nil {
		b.vals[slot] = append(b.vals[slot][:0], r.Value...)
		r.Value = b.vals[slot]
	}
	b.out[slot] = r
	if b.left--; b.left > 0 {
		return
	}
	if b.cb != nil {
		b.cb(c, b.out)
	}
	for _, v := range b.vals[:len(b.out)] {
		iobuf.Poison(v)
	}
	b.cb = nil
	b.rep.batches.Put(b)
}

// readRecord is one key read in flight, from the hot-key consult to the
// answer, pooled on the core's representative. Its states, in order:
// the hot-key consult (getOne), queued toward set[at] (submitRead), in
// flight there (a round), then failover to set[at+1] on a miss or a
// network error, or read repair of the replicas that missed, and done
// (finish), which sends it home before the answer goes out. A salted
// key's record skips the walk: its shards walk records of their own and
// fold into its done.
//
// The record owns a copy of the key for its whole life, so the caller's
// key may change once Get or GetMulti returns; the key's hash is taken
// once, with the copy.
type readRecord struct {
	freelist.Node
	rep *clientRep
	// done is onResponse, bound once when the record is made: the one
	// callback submitRead, register and a round's fence hand around.
	done Callback
	key  []byte
	hash uint64 // ringHash(key)
	// set is the read set being walked (in owners unless a large R spills
	// it), empty until the walk starts; at indexes the backend asked, and
	// missed holds those that answered "not found", for read repair.
	set    []int
	owners [8]int
	at     int
	missed []int
	// fill admits an OK answer into the hot-key cache, unless a handoff
	// opened over the key or the delete log holds a Delete of it issued
	// after the read: deletes is the cluster's delete count at issue.
	fill    bool
	deletes uint64
	// reval marks a sampled revalidation of a cached key: its answer
	// goes to the cache entry (revalidate), not to a caller.
	reval bool
	// The answer goes to cb, or to slot of a GetMulti's batch.
	cb    Callback
	batch *multiGet
	slot  int
}

func newReadRecord(rep *clientRep) *readRecord {
	rec := &readRecord{rep: rep}
	rec.set = rec.owners[:0]
	rec.done = rec.onResponse
	return rec
}

// newRead takes a record from the core's list for a read of key.
func (r *clientRep) newRead(key []byte) *readRecord {
	rec := r.reads.Get()
	rec.key = append(rec.key[:0], key...)
	rec.hash = ringHash(key)
	return rec
}

// getOne is the shared single-key read path behind Get and GetMulti:
// the hot-key cache consultation and promotion, then the replicated
// fetch. It runs inside an open batch scope, so the network reads it
// issues land in the core's coalescing queue.
func (cli *Client) getOne(c *event.Ctx, rec *readRecord) {
	if hk := rec.rep.hot; hk != nil {
		if cli.handoffCovers(rec.key, rec.hash) {
			hk.stats.HandoffBypass++
			hk.cache.invalidate(rec.key, rec.hash)
			cli.fetch(c, rec)
			return
		}
		if e, ok := hk.cache.get(rec.key, rec.hash, c.Now()); ok {
			hk.stats.Hits++
			if hk.opt.StalenessProbe {
				cli.probeStaleness(c, hk, rec.key, e)
			}
			cli.maybeRevalidate(c, rec.rep, rec.key)
			// A hit lends the entry's own value buffer. Nothing fills,
			// refreshes or re-stamps an entry synchronously inside a read
			// callback - fills and refreshes run on a network answer,
			// re-stamps on a write's acknowledgment or in a spawned event,
			// all later events - so the bytes hold until the callback
			// returns.
			rec.finish(c, Response{Status: memcached.StatusOK, Flags: e.flags, Value: e.value, CAS: e.cas})
			return
		}
		hk.stats.Misses++
		if hk.sketch.touch(rec.hash) >= hk.opt.PromoteMin {
			// The key is hot: admit the response when it arrives, unless a
			// handoff opened over its range or some client deleted it in
			// the meantime.
			rec.fill, rec.deletes = true, cli.cl.deletes
		}
	}
	cli.fetch(c, rec)
}

// fetch reads the record's key through the data path: a plain
// replica-failover walk for an unsalted key. A write-spread key reads
// the shard that took the latest acknowledged write - one shard, not all
// of them - and verifies the served copy's stamp against the acked stamp
// (replica-wide stamps make that comparison exact). Only when
// verification fails - the shard lost its quorum majority, a delete
// reset the record, or nothing has acked since promotion - does the read
// fall back to the full fan-in. Without the targeted fast path every
// read of a promoted key would cost K network reads, and the hottest
// keys carry most of the skewed traffic: the fan-in amplification would
// cost more than the spreading saves.
func (cli *Client) fetch(c *event.Ctx, rec *readRecord) {
	salts := cli.cl.saltsOf(rec.key)
	if salts <= 1 {
		rec.walk(c)
		return
	}
	cli.cl.hotWrite.SaltedReads++
	if salt, stamp, ok := cli.cl.saltTarget(rec.key); ok {
		shard := rec.rep.newRead(saltedKey(rec.key, salt))
		shard.cb = func(c *event.Ctx, r Response) {
			if r.OK() && r.CAS >= stamp {
				rec.finish(c, r)
				return
			}
			cli.fanIn(c, rec, salts)
		}
		shard.walk(c)
		return
	}
	cli.fanIn(c, rec, salts)
}

// fanIn reads every salted shard of a spread key and folds to the
// newest stamp - the slow path behind fetch's targeted read.
func (cli *Client) fanIn(c *event.Ctx, rec *readRecord, salts int) {
	cli.cl.hotWrite.SaltedFanIns++
	fold := &saltFold{left: salts, cb: rec.done}
	for s := 0; s < salts; s++ {
		shard := rec.rep.newRead(saltedKey(rec.key, s))
		shard.cb = fold.add
		shard.walk(c)
	}
}

// walk starts the replica walk: the read set of the record's hash, then
// its first backend.
func (rec *readRecord) walk(c *event.Ctx) {
	rec.set = rec.rep.cli.cl.appendReadSet(rec.set[:0], rec.hash)
	rec.rep.submitRead(c, rec.set[0], rec)
}

// onResponse takes the answer of set[at] while the record walks its read
// set: a hit ends the walk, a miss or a network error moves on to the
// next replica, and the last replica's answer stands. With no walk (a
// salted key's fold) the answer is final.
func (rec *readRecord) onResponse(c *event.Ctx, r Response) {
	rec.Live()
	if len(rec.set) > 0 {
		cli := rec.rep.cli
		switch {
		case r.OK():
			if rec.at > 0 {
				if a := cli.cl.Audit; a != nil {
					a.Emit(c.Now(), int(cli.node.Id), audit.FailoverRead, audit.Fields{
						"backend": rec.set[rec.at], "tried": rec.at + 1, "key": string(rec.key),
					})
				}
			}
			if len(rec.missed) > 0 {
				cli.readRepair(c, rec.key, rec.missed, r)
			}
		case rec.at+1 < len(rec.set):
			if r.Status == memcached.StatusKeyNotFound {
				rec.missed = append(rec.missed, rec.set[rec.at])
			}
			rec.at++
			rec.rep.submitRead(c, rec.set[rec.at], rec)
			return
		}
	}
	rec.finish(c, r)
}

// finish ends the read: a revalidation's answer goes to the cache, and
// a promoted key's fills it; then the record goes home, then the answer
// goes out.
func (rec *readRecord) finish(c *event.Ctx, r Response) {
	rep, cli := rec.rep, rec.rep.cli
	switch {
	case rec.reval:
		rec.revalidate(c, r)
	case rec.fill && r.OK() && !cli.handoffCovers(rec.key, rec.hash) && !cli.cl.deletedSince(rec.deletes, rec.hash):
		rep.hot.cache.put(rec.key, rec.hash, r.Value, r.Flags, r.CAS, r.ExpiresAt, c.Now())
		if a := cli.cl.Audit; a != nil {
			a.Emit(c.Now(), int(cli.node.Id), audit.HotKeyPromoted, audit.Fields{
				"key": string(rec.key), "core": c.Core().ID,
			})
		}
	}
	cb, b, slot := rec.cb, rec.batch, rec.slot
	rec.set, rec.at, rec.missed = rec.set[:0], 0, rec.missed[:0]
	rec.fill, rec.deletes, rec.reval = false, 0, false
	rec.cb, rec.batch, rec.slot = nil, nil, 0
	rep.reads.Put(rec)
	switch {
	case b != nil:
		b.deliver(c, slot, r)
	case cb != nil:
		cb(c, r)
	}
}

// revalidate applies a sampled revalidation's answer to the cached entry
// it checked, if that is still held: a strictly newer stamp refreshes it
// in place, the same stamp restarts its TTL clock, and a miss drops it.
func (rec *readRecord) revalidate(c *event.Ctx, r Response) {
	hk, cli := rec.rep.hot, rec.rep.cli
	cur := hk.cache.lookup(rec.key, rec.hash)
	if cur == nil {
		return // evicted or invalidated while the check was in flight
	}
	switch {
	case r.OK() && r.CAS > cur.cas:
		// Stamps are monotonic (and, being replica-wide, comparable no
		// matter which replica answered), so only a strictly newer
		// response may replace the entry - a reordered older read
		// (overtaken by a write-path re-stamp) must not roll it back or
		// reset its TTL clock onto stale data.
		if cli.handoffCovers(rec.key, rec.hash) {
			hk.cache.remove(cur)
			return
		}
		hk.stats.Refreshes++
		cur.value = append(cur.value[:0], r.Value...)
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

// saltFold aggregates one fan-in read: writes round-robin the salts, so
// the salts hold successively older versions and the newest stamp wins
// (replica-wide stamps make that comparison exact). Misses on some
// salts are normal - fewer writes than salts since promotion - and a
// network error surfaces only when no salt could be served at all. Each
// shard's answer is lent only for its own callback, so the fold copies
// the best value it keeps.
type saltFold struct {
	left      int
	best      Response
	sawOK     bool
	sawNetErr bool
	cb        Callback
}

func (f *saltFold) add(c *event.Ctx, r Response) {
	if r.OK() && (!f.sawOK || r.CAS > f.best.CAS) {
		v := append(f.best.Value[:0], r.Value...)
		f.best = r
		f.best.Value = v
		f.sawOK = true
	}
	if r.NetworkError() {
		f.sawNetErr = true
	}
	f.left--
	if f.left > 0 || f.cb == nil {
		return
	}
	switch {
	case f.sawOK:
		f.cb(c, f.best)
	case f.sawNetErr:
		f.cb(c, Response{Status: StatusNetworkError})
	default:
		f.cb(c, Response{Status: memcached.StatusKeyNotFound})
	}
}

// handoffCovers reports whether any of key's storage locations - the
// key itself, whose ring hash is h, plus its salted shards when
// write-spread - sits in a still-pending moved range of an open
// migration window.
func (cli *Client) handoffCovers(key []byte, h uint64) bool {
	ho := cli.cl.handoff
	if ho == nil {
		return false
	}
	if ho.covers(h) {
		return true
	}
	for s := 1; s < cli.cl.saltsOf(key); s++ {
		if ho.covers(ringHash(saltedKey(key, s))) {
			return true
		}
	}
	return false
}

// readRepair re-sets the value onto replicas that reported a miss while
// a successor held the key (a restored backend catching up, or a
// replica that lost a racing write). Fire-and-forget: repair is an
// optimization, not a durability mechanism. The repair carries the
// serving replica's version stamp: the repaired copy must hold the SAME
// stamp as the survivors - a re-minted one would diverge the replica
// set and silently break the hot-key cache's cross-replica CAS
// comparisons - and the stamped store rule makes the repair a no-op on
// a replica that already holds something newer.
func (cli *Client) readRepair(c *event.Ctx, key []byte, missed []int, r Response) {
	if a := cli.cl.Audit; a != nil {
		a.Emit(c.Now(), int(cli.node.Id), audit.ReadRepair, audit.Fields{
			"key": string(key), "replicas": len(missed),
		})
	}
	// The repair carries the serving replica's absolute expiry verbatim:
	// re-encoding as whole relative seconds would shift the repaired
	// copy's deadline away from the survivors'.
	req := memcached.SetAbsExpiryRequest(key, r.Value, r.Flags, r.CAS, int64(r.ExpiresAt))
	for _, backend := range missed {
		cli.rep(c).submit(c, backend, req, nil)
	}
}
