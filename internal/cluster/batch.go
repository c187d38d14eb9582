package cluster

import (
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/freelist"
)

// DefaultMaxBatch is the per-backend coalescing limit: a backend's
// pending reads flush early once this many have queued, bounding both
// the round's wire size and the latency the last-enqueued key waits.
const DefaultMaxBatch = 16

// BatchOptions tunes the client's read-submission queue. Every read -
// Get, GetMulti, failover retries, revalidation probes - passes through
// one per-core, per-backend coalescing queue; these options decide how
// aggressively same-backend reads share a wire round.
type BatchOptions struct {
	// MaxBatch caps one backend's reads per pipelined round (default
	// DefaultMaxBatch). 1 disables coalescing entirely - every read goes
	// out as its own plain GET, the pre-batching behavior - which is the
	// per-op ablation arm of the FrontendScaling experiment.
	MaxBatch int
}

// WithDefaults resolves unset fields.
func (o BatchOptions) WithDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	return o
}

// BatchStats counts the submission queue's behavior, summed across the
// client's per-core representatives by Client.BatchStats.
type BatchStats struct {
	// Ops counts reads submitted through the queue.
	Ops uint64
	// Rounds counts wire rounds issued (flushes of a non-empty backend
	// queue); Singles of those were 1-op rounds (plain GET, no fence)
	// and Batches were multi-op GETQ+Noop rounds.
	Rounds  uint64
	Singles uint64
	Batches uint64
	// QuietMisses counts batched reads resolved as misses by the round's
	// fence - the server stayed quiet about them.
	QuietMisses uint64
	// OpsPerBatch is a histogram of round sizes: 1, 2-3, 4-7, 8-15, 16+.
	OpsPerBatch [5]uint64
}

// OpsPerBatchLabels names BatchStats.OpsPerBatch's buckets.
var OpsPerBatchLabels = [5]string{"1", "2-3", "4-7", "8-15", "16+"}

func (s *BatchStats) noteRound(n int) {
	s.Rounds++
	switch {
	case n == 1:
		s.Singles++
		s.OpsPerBatch[0]++
	case n <= 3:
		s.Batches++
		s.OpsPerBatch[1]++
	case n <= 7:
		s.Batches++
		s.OpsPerBatch[2]++
	case n <= 15:
		s.Batches++
		s.OpsPerBatch[3]++
	default:
		s.Batches++
		s.OpsPerBatch[4]++
	}
}

// Accumulate folds another counter group into s (summing per-core or
// per-client stats).
func (s *BatchStats) Accumulate(o BatchStats) {
	s.Ops += o.Ops
	s.Rounds += o.Rounds
	s.Singles += o.Singles
	s.Batches += o.Batches
	s.QuietMisses += o.QuietMisses
	for i := range s.OpsPerBatch {
		s.OpsPerBatch[i] += o.OpsPerBatch[i]
	}
}

// readQueue is one core's read-submission queue: reads accumulate per
// backend while a batch scope (an outermost Get/GetMulti call) is open,
// then flush as one pipelined round per backend. Per-core state like
// everything else in the representative - no locks. A backend's pending
// slice keeps its capacity from round to round.
type readQueue struct {
	opt     BatchOptions
	pending map[int][]*readRecord
	order   []int // backends with queued reads, in first-enqueue order
	depth   int   // open batch scopes
	stats   BatchStats
}

func newReadQueue(opt BatchOptions) *readQueue {
	return &readQueue{opt: opt, pending: map[int][]*readRecord{}}
}

// beginBatch opens a batch scope: reads submitted until the matching
// endBatch coalesce instead of flushing individually. Scopes nest
// (failover inside a GetMulti member), so only the outermost close
// triggers the flush.
func (r *clientRep) beginBatch() { r.queue.depth++ }

func (r *clientRep) endBatch(c *event.Ctx) {
	r.queue.depth--
	if r.queue.depth == 0 {
		r.flushReads(c)
	}
}

// submitRead is the single entry point for every read the client issues:
// it queues the record toward backend and flushes per BatchOptions.
// Reads submitted outside any batch scope (failover retries, repair
// probes landing from response callbacks) flush immediately, so a
// retry's latency is never held hostage to a future batch.
func (r *clientRep) submitRead(c *event.Ctx, backend int, rec *readRecord) {
	q := r.queue
	q.stats.Ops++
	if len(q.pending[backend]) == 0 {
		q.order = append(q.order, backend)
	}
	q.pending[backend] = append(q.pending[backend], rec)
	if len(q.pending[backend]) >= q.opt.MaxBatch {
		r.flushBackend(c, backend)
		return
	}
	if q.depth == 0 {
		r.flushReads(c)
	}
}

// flushReads drains every backend's queue. Callbacks fired inside a
// flush (a dead backend failing its members synchronously) may enqueue
// and recursively flush; flushBackend removes its backend from the
// order list before invoking any callback, so the loop converges.
func (r *clientRep) flushReads(c *event.Ctx) {
	for len(r.queue.order) > 0 {
		r.flushBackend(c, r.queue.order[0])
	}
}

// flushBackend issues one backend's queued reads as a single wire
// round: a plain GET for a 1-op round (no fence needed - a GET always
// answers), a GETQ per key fenced by a Noop for anything larger.
func (r *clientRep) flushBackend(c *event.Ctx, backend int) {
	q := r.queue
	ops := q.pending[backend]
	q.pending[backend] = nil // reads queued by the callbacks below start a new slice
	for i, b := range q.order {
		if b == backend {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
	if len(ops) == 0 {
		return
	}
	q.stats.noteRound(len(ops))
	if !r.cli.cl.Servable(backend) {
		// Same fast-fail as the write path: the backend was evicted after
		// these reads' replica sets were computed, so fail the whole round
		// as network errors and let each member's failover move on.
		for _, rec := range ops {
			rec.done(c, Response{Status: StatusNetworkError})
		}
	} else {
		cc := r.connFor(c, backend)
		bytes := r.sendRound(c, cc, ops)
		if len(ops) >= 2 {
			if a := r.cli.cl.Audit; a != nil {
				a.Emit(c.Now(), int(r.cli.node.Id), audit.FrontendBatchFlush, audit.Fields{
					"backend": backend, "ops": len(ops), "bytes": bytes,
				})
			}
		}
	}
	if len(q.pending[backend]) == 0 {
		clear(ops)
		q.pending[backend] = ops[:0]
	}
}

// readRound tracks one multi-op GETQ round in flight: which opaques
// belong to it, so the fence's response can resolve the still-silent
// members as misses. Hits (and individual timeouts, and connection
// failure) remove members from the inflight map before the fence
// answers; whatever remains when the fence reports OK is a key the
// server saw and stayed quiet about - a definitive miss. Rounds come
// from the representative's list, whichever of its connections they
// ride, and go home when their fence answers or fails.
type readRound struct {
	freelist.Node
	rep     *clientRep
	cc      *clientConn
	members []uint32
	// fence is resolve, bound once when the round is made: the Noop's
	// callback.
	fence Callback
}

func newReadRound(rep *clientRep) *readRound {
	rr := &readRound{rep: rep, members: make([]uint32, 0, rep.queue.opt.MaxBatch)}
	rr.fence = rr.resolve
	return rr
}

func (rr *readRound) resolve(c *event.Ctx, r Response) {
	rr.Live()
	// A failed fence (timeout, teardown) resolves nothing: the members
	// fail through their own timers or the connection's fail(), each as a
	// network error. Resolving misses then would fabricate false misses
	// out of a dead backend - exactly the conflation the client exists to
	// avoid.
	if r.OK() {
		for _, opaque := range rr.members {
			op, ok := rr.cc.inflight[opaque]
			if !ok {
				continue // answered (hit) or already failed
			}
			delete(rr.cc.inflight, opaque)
			op.timer.Cancel()
			rr.rep.queue.stats.QuietMisses++
			if op.cb != nil {
				op.cb(c, Response{Status: memcached.StatusKeyNotFound})
			}
		}
	}
	rr.cc, rr.members = nil, rr.members[:0]
	rr.rep.rounds.Put(rr)
}

// sendRound transmits one backend's reads as a single pipelined round
// on cc and returns the round's wire size in bytes.
func (r *clientRep) sendRound(c *event.Ctx, cc *clientConn, ops []*readRecord) int {
	if len(ops) == 1 {
		ops[0].Live()
		return cc.send(c, &memcached.Request{Opcode: memcached.OpGet, Key: ops[0].key}, ops[0].done)
	}
	round := r.rounds.Get()
	round.cc = cc
	for _, rec := range ops {
		rec.Live()
		opaque := cc.register(c, rec.done)
		round.members = append(round.members, opaque)
		cc.write(&memcached.Request{Opcode: memcached.OpGetQ, Key: rec.key}, opaque)
	}
	cc.write(&memcached.Request{Opcode: memcached.OpNoop}, cc.register(c, round.fence))
	return cc.transmit(c)
}
