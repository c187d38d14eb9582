package cluster

import (
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/freelist"
	"ebbrt/internal/sim"
)

// Hinted handoff (Dynamo, SOSP 2007, §4.6) for quorum Sets. A Set acks
// once a majority of its replicas has stored it; a member whose copy
// failed - a timeout, a torn-down connection, an evicted backend - may
// never get it, and a read that goes to that member first returns the
// older value for as long as the key is not written again. So the
// submitting core keeps a hint for each such copy: backend, key, stamp,
// flags, deadline and value. When that backend next answers the core,
// the core replays the hint as the same stamped Set.
//
// A replay needs no ordering, among replays or against the backend's
// stragglers - the timed-out requests TCP still delivers once the
// backend is back. A Set older than the replay is a no-op after it
// (the stamped-store rule), and so is a Delete older than it (deletes
// are stamped too). A Delete newer than the replayed Set leaves a
// tombstone that makes the replay a no-op too, but only until the
// tombstone's horizon, and a hint may wait longer than that: so a hint
// for a Set issued before a Delete of its key, by any client, is dropped
// unsent, by the cluster's delete log (Cluster.deletedSince). A Delete
// leaves no hint. Fault-free writes make no hint.
//
// When a handoff window opens, the core also sends each hint it keeps
// for a key in a moved range to that range's new owner (forwardHints):
// the migration stream may copy the key from the very backend that
// missed the Set.

// maxHints bounds the hints one core keeps, in flight included. A hint
// that would pass it is dropped, with an audit event: the range re-sync
// that would repair such a backend is not built.
const maxHints = 1024

// hint is one failed copy of an acknowledged Set, pooled on the core that
// submitted the Set: waiting in the core's kept list, or being replayed
// with done as the replay's callback.
type hint struct {
	freelist.Node
	rep     *clientRep
	done    Callback
	backend int
	key     []byte
	hash    uint64
	value   []byte
	stamp   uint64
	deletes uint64 // the cluster's delete count when the Set was issued
	flags   uint32
	expires sim.Time
}

func newHint(rep *clientRep) *hint {
	h := &hint{rep: rep}
	h.done = h.onReplay
	return h
}

// keepHint records that backend missed the Set rec carries. A kept hint
// for the same backend and key is brought up to the newer stamp rather
// than joined by a second one.
func (r *clientRep) keepHint(c *event.Ctx, backend int, rec *writeRecord) {
	if h := r.keptFor(backend, rec.key); h != nil {
		h.update(rec.value, rec.stamp, rec.deletes, rec.flags, rec.expires)
		return
	}
	if r.hints.Outstanding() >= maxHints {
		if a := r.cli.cl.Audit; a != nil {
			a.Emit(c.Now(), int(r.cli.node.Id), audit.HintDropped, audit.Fields{
				"backend": backend, "key": string(rec.key),
			})
		}
		return
	}
	h := r.hints.Get()
	h.backend, h.hash = backend, rec.hash
	h.key, h.stamp = append(h.key[:0], rec.key...), 0
	h.update(rec.value, rec.stamp, rec.deletes, rec.flags, rec.expires)
	r.kept = append(r.kept, h)
}

// keptFor returns the hint the core keeps for backend and key, if any.
func (r *clientRep) keptFor(backend int, key []byte) *hint {
	for _, h := range r.kept {
		if h.backend == backend && string(h.key) == string(key) {
			return h
		}
	}
	return nil
}

// update brings the hint up to a Set of its key, if that Set is newer.
func (h *hint) update(value []byte, stamp, deletes uint64, flags uint32, expires sim.Time) {
	if stamp > h.stamp {
		h.value = append(h.value[:0], value...)
		h.stamp, h.deletes, h.flags, h.expires = stamp, deletes, flags, expires
	}
}

// replayHints sends every hint the core keeps for backend, unless it is
// off the ring. A hint whose key was deleted after its Set goes home
// unsent.
func (r *clientRep) replayHints(c *event.Ctx, backend int) {
	if !r.cli.cl.Servable(backend) {
		return
	}
	kept := r.kept[:0]
	var due []*hint
	for _, h := range r.kept {
		if h.backend == backend {
			due = append(due, h)
		} else {
			kept = append(kept, h)
		}
	}
	clear(r.kept[len(kept):])
	r.kept = kept
	for _, h := range due {
		if r.cli.cl.deletedSince(h.deletes, h.hash) {
			r.hints.Put(h)
			continue
		}
		r.submit(c, backend, h.request(), h.done)
	}
}

// request is the Set the hint carries, stamped, with its absolute
// deadline.
func (h *hint) request() memcached.Request {
	return memcached.SetAbsExpiryRequest(h.key, h.value, h.flags, h.stamp, int64(h.expires))
}

// forwardHints sends each hint the core keeps for a key in one of the
// moved ranges to that range's new owner, with no callback, unless its
// key was deleted after its Set. The hint stays kept for its own
// backend.
func (r *clientRep) forwardHints(c *event.Ctx, moved []MoveRange) {
	for _, h := range r.kept {
		for _, m := range moved {
			if m.Contains(h.hash) && !r.cli.cl.deletedSince(h.deletes, h.hash) {
				r.submit(c, m.Dest, h.request(), nil)
			}
		}
	}
}

// onReplay ends a replay: the backend stored the value or holds a newer
// one, or it answered with an error no replay would change, and the hint
// goes home; a replay lost in the network is kept for the next answer.
func (h *hint) onReplay(c *event.Ctx, resp Response) {
	h.Live()
	r := h.rep
	if !resp.NetworkError() {
		r.hints.Put(h)
		return
	}
	if k := r.keptFor(h.backend, h.key); k != nil {
		// Another failure of the key was kept meanwhile: one hint will do.
		k.update(h.value, h.stamp, h.deletes, h.flags, h.expires)
		r.hints.Put(h)
		return
	}
	r.kept = append(r.kept, h)
}
