package cluster

import (
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
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

// pendingRead is one read waiting in a core's coalescing queue.
type pendingRead struct {
	key []byte
	cb  Callback
}

// readQueue is one core's read-submission queue: reads accumulate per
// backend while a batch scope (an outermost Get/GetMulti call) is open,
// then flush as one pipelined round per backend. Per-core state like
// everything else in the representative - no locks.
type readQueue struct {
	opt     BatchOptions
	pending map[int][]pendingRead
	order   []int // backends with queued reads, in first-enqueue order
	depth   int   // open batch scopes
	stats   BatchStats
}

func newReadQueue(opt BatchOptions) *readQueue {
	return &readQueue{opt: opt, pending: map[int][]pendingRead{}}
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
// it queues the key toward its backend and flushes per BatchOptions.
// Reads submitted outside any batch scope (failover retries, repair
// probes landing from response callbacks) flush immediately, so a
// retry's latency is never held hostage to a future batch.
func (r *clientRep) submitRead(c *event.Ctx, backend int, key []byte, cb Callback) {
	q := r.queue
	q.stats.Ops++
	if _, ok := q.pending[backend]; !ok {
		q.order = append(q.order, backend)
	}
	q.pending[backend] = append(q.pending[backend], pendingRead{key: append([]byte(nil), key...), cb: cb})
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
	delete(q.pending, backend)
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
		for _, op := range ops {
			if op.cb != nil {
				op.cb(c, Response{Status: StatusNetworkError})
			}
		}
		return
	}
	cc := r.connFor(c, backend)
	bytes := cc.sendRound(c, ops, &q.stats)
	if len(ops) >= 2 {
		if a := r.cli.cl.Audit; a != nil {
			a.Emit(c.Now(), int(r.cli.node.Id), audit.FrontendBatchFlush, audit.Fields{
				"backend": backend, "ops": len(ops), "bytes": bytes,
			})
		}
	}
}

// readRound tracks one multi-op GETQ round in flight: which opaques
// belong to it, so the fence's response can resolve the still-silent
// members as misses. Hits (and individual timeouts, and connection
// failure) remove members from the inflight map before the fence
// answers; whatever remains when the fence reports OK is a key the
// server saw and stayed quiet about - a definitive miss.
type readRound struct {
	cc      *clientConn
	members []uint32
	stats   *BatchStats
}

func (rr *readRound) resolve(c *event.Ctx, r Response) {
	if !r.OK() {
		// The fence failed (timeout, teardown): the members fail through
		// their own timers or the connection's fail(), each as a network
		// error. Resolving misses here would fabricate false misses out of
		// a dead backend - exactly the conflation the client exists to
		// avoid.
		return
	}
	for _, opaque := range rr.members {
		op, ok := rr.cc.inflight[opaque]
		if !ok {
			continue // answered (hit) or already failed
		}
		delete(rr.cc.inflight, opaque)
		op.timer.Cancel()
		rr.stats.QuietMisses++
		if op.cb != nil {
			op.cb(c, Response{Status: memcached.StatusKeyNotFound})
		}
	}
}

// sendRound transmits one backend's reads as a single pipelined round
// on this connection and returns the round's wire size in bytes.
func (cc *clientConn) sendRound(c *event.Ctx, ops []pendingRead, stats *BatchStats) int {
	if len(ops) == 1 {
		return cc.send(c, &memcached.Request{Opcode: memcached.OpGet, Key: ops[0].key}, ops[0].cb)
	}
	round := &readRound{cc: cc, stats: stats}
	for _, op := range ops {
		opaque := cc.register(c, op.cb)
		round.members = append(round.members, opaque)
		cc.write(&memcached.Request{Opcode: memcached.OpGetQ, Key: op.key}, opaque)
	}
	cc.write(&memcached.Request{Opcode: memcached.OpNoop}, cc.register(c, round.resolve))
	return cc.transmit(c)
}
