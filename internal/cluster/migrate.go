package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/core"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/hosted"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// This file is the rebalancer: the machinery that moves key shares
// between backends when the ring's membership changes, instead of
// letting them fault in as cache misses (join) or letting the replica
// count stay degraded (permanent loss).
//
// It has three parts:
//
//   - PlanMigration diffs two rings into the exact set of moved hash
//     ranges: for every arc of the keyspace whose owner set gained a
//     backend, a MoveRange naming the gaining backend and the old
//     owners that hold the data.
//   - Migrator executes a plan: a coordinator Ebb on the frontend asks
//     a live source replica (over the messenger) to stream each moved
//     range to its new owner over the memcached binary protocol
//     (pipelined stamped SetQs and Deletes fenced by a Noop), retrying
//     from surviving replicas on failure.
//   - The Cluster's handoff state (cluster.go) dual-routes the client
//     during the window: writes reach old and new owners, reads fall
//     through old to new, and each range cuts over the moment its
//     stream completes.

// MoveRange is one migrated arc of the hash ring: the keys whose hash
// lies in (Lo, Hi] (wrapping when Lo >= Hi) gained Dest as an owner.
// Sources are the pre-change owners holding the data, in ring
// preference order.
type MoveRange struct {
	Lo, Hi  uint64
	Dest    int
	Sources []int
}

// Contains reports whether hash h falls inside the range's arc.
func (r MoveRange) Contains(h uint64) bool {
	if r.Lo < r.Hi {
		return h > r.Lo && h <= r.Hi
	}
	// Wrapped (or full-circle, Lo == Hi) arc.
	return h > r.Lo || h <= r.Hi
}

// PlanMigration computes the exact ownership delta between two rings
// under R-way replication: one MoveRange per (arc, gaining backend)
// pair, covering precisely the keys whose replica set changed. Segment
// boundaries are the union of both rings' virtual points, so within
// each emitted arc both the old and new owner sets are constant; arcs
// with identical transfer endpoints are merged. Keys outside the plan
// are untouched - the consistent-hashing bound (~1/N of the keyspace
// per membership change) carries over to the bytes on the wire.
func PlanMigration(old, new *Ring, replicas int) []MoveRange {
	if old.Size() == 0 || new.Size() == 0 {
		return nil
	}
	if replicas <= 0 {
		replicas = 1
	}
	bounds := make([]uint64, 0, len(old.points)+len(new.points))
	for _, p := range old.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range new.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != bounds[i-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq

	var plan []MoveRange
	for i, hi := range bounds {
		lo := bounds[(i+len(bounds)-1)%len(bounds)]
		oldSet := old.OwnersAt(hi, replicas)
		newSet := new.OwnersAt(hi, replicas)
		for _, d := range newSet {
			if !containsBackend(oldSet, d) {
				plan = append(plan, MoveRange{
					Lo: lo, Hi: hi, Dest: d,
					Sources: append([]int(nil), oldSet...),
				})
			}
		}
	}
	return mergeAdjacent(plan)
}

// mergeAdjacent coalesces consecutive plan entries that share endpoints
// and abut on the ring, shrinking both the plan and the per-operation
// handoff lookups.
func mergeAdjacent(plan []MoveRange) []MoveRange {
	if len(plan) == 0 {
		return plan
	}
	out := plan[:1]
	for _, r := range plan[1:] {
		last := &out[len(out)-1]
		if last.Hi == r.Lo && last.Dest == r.Dest && equalBackends(last.Sources, r.Sources) {
			last.Hi = r.Hi
			continue
		}
		out = append(out, r)
	}
	return out
}

func containsBackend(s []int, b int) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

func equalBackends(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The rebalancer's protocol constants.
const (
	// migrationJobTimeout bounds one transfer attempt before the
	// coordinator gives up on its source and asks the next: generously
	// above a stream of a full key share, well below the netstack giving
	// up on a dead peer.
	migrationJobTimeout = 25 * sim.Millisecond
	// migrationRetryDelay spaces retries after an explicitly reported
	// transfer failure.
	migrationRetryDelay = 2 * sim.Millisecond
	// migrationMaxAttempts bounds per-job attempts before the whole
	// migration is aborted.
	migrationMaxAttempts = 6
	// migrationChunkBytes caps one Send of the migration stream.
	migrationChunkBytes = 16 * 1024
)

// Migration is the record of one rebalance.
type Migration struct {
	Id    uint64
	Kind  string // "join" or "decommission"
	Epoch uint64 // the ring epoch whose diff this migration streams
	// Ranges and Jobs size the plan: ranges are cutover units, jobs are
	// transfer units (ranges grouped by identical endpoints).
	Ranges int
	Jobs   int
	// Moved counts entries streamed to new owners.
	Moved int
	// Lost counts ranges that had no live source (permanent loss at
	// R=1): they cut over empty and their keys fault in as misses.
	Lost      int
	StartedAt sim.Time
	// DoneAt is set when the migration finishes or aborts (-1 while
	// running).
	DoneAt  sim.Time
	Aborted bool
}

// migration wire format, carried over the messenger:
//
//	mgXfer (coordinator -> source):
//	  [kind u8][migId u64][job u32][attempt u32][destNode u32]
//	  [nRanges u32]{[lo u64][hi u64]}*
//	mgDone / mgFail (source -> coordinator):
//	  [kind u8][migId u64][job u32][attempt u32][moved u32]
const (
	mgXfer = 0x01
	mgDone = 0x02
	mgFail = 0x03
)

const mgAckLen = 1 + 8 + 4 + 4 + 4

// xferJob is one transfer unit: every moved range sharing a destination
// and source set, streamed over a single connection. silent holds the
// sources that let one of the job's attempts time out: the coordinator
// cannot tell a dead node from a slow one, so it asks neither again.
type xferJob struct {
	dest    int
	sources []int
	ranges  []MoveRange
	silent  []int
}

// migrationRun is the coordinator's state for the active migration.
type migrationRun struct {
	mig     *Migration
	jobs    []xferJob
	done    []bool
	attempt []int
	timers  []event.Timer
	left    int
	drain   int // backend being drained (live decommission), -1 otherwise
}

// Migrator is the rebalancing coordinator Ebb, installed on the hosted
// frontend. Join and Decommission change the ring's membership and
// stream the resulting ownership delta; while a migration runs, the
// cluster's handoff state dual-routes the affected key ranges. One
// migration runs at a time.
type Migrator struct {
	cl   *Cluster
	node *hosted.Node
	id   core.Id
	mgr  *event.Manager
	// jobTimeout and perEntryCPU are migrationJobTimeout and
	// costs.MigratePerEntryNs; tests that need a slow stream raise both.
	jobTimeout, perEntryCPU sim.Time

	nextId     uint64
	cur        *migrationRun
	last       *Migration
	onDone     []func(*Migration)
	registered map[int]bool
}

// NewMigrator installs the rebalancer for the cluster on the given node
// (the hosted frontend).
func NewMigrator(cl *Cluster, node *hosted.Node) *Migrator {
	m := &Migrator{
		cl:          cl,
		node:        node,
		id:          cl.Sys.AllocateEbbId(),
		mgr:         node.Runtime.Mgrs()[0],
		jobTimeout:  migrationJobTimeout,
		perEntryCPU: costs.MigratePerEntryNs,
		registered:  map[int]bool{},
	}
	// The coordinator collects transfer acknowledgments.
	node.Messenger.Register(m.id, func(c *event.Ctx, src hosted.NodeId, payload []byte) {
		m.onAck(c, payload)
	})
	for i := range cl.Backends {
		m.register(i)
	}
	// A migration whose destination leaves the ring can never complete;
	// abort so the handoff window closes (the ring's own rerouting
	// already covers the keys).
	cl.Watch(func(b int, up bool) {
		if up || m.cur == nil {
			return
		}
		for j, job := range m.cur.jobs {
			if job.dest == b && !m.cur.done[j] {
				m.abort()
				return
			}
		}
	})
	return m
}

// Active reports whether a migration is in progress.
func (m *Migrator) Active() bool { return m.cur != nil }

// Last returns the most recently finished (or aborted) migration, nil
// if none has run.
func (m *Migrator) Last() *Migration { return m.last }

// OnComplete registers fn to run when a migration finishes or aborts.
func (m *Migrator) OnComplete(fn func(*Migration)) {
	m.onDone = append(m.onDone, fn)
}

// Join boots a new backend and streams its key share to it: the ring
// gains the backend immediately (new placement routes to it), and until
// every moved range has been streamed from a live replica the client
// dual-routes those ranges, so the hit rate never sees the join.
func (m *Migrator) Join(cores int) *Backend {
	if m.cur != nil {
		panic("cluster: migration already in progress")
	}
	prev := m.cl.Ring.Clone()
	b := m.cl.AddBackend(cores)
	m.register(len(m.cl.Backends) - 1)
	plan := PlanMigration(prev, m.cl.Ring, m.cl.Replicas)
	m.start("join", prev, plan, -1)
	return b
}

// Decommission permanently removes backend i, restoring every affected
// key to R live replicas:
//
//   - A live backend is drained: it leaves the ring but keeps serving
//     its old share while the migrator streams that share (from the
//     backend itself, or any replica) to the new owners; only then do
//     clients drop it.
//   - An already-evicted (dead) backend is re-replicated around: the
//     ranges it co-owned are streamed from surviving replicas to the
//     ring successors that were promoted into the replica sets, closing
//     the degraded-R window a permanent failure used to leave behind.
func (m *Migrator) Decommission(i int) {
	if m.cur != nil {
		panic("cluster: migration already in progress")
	}
	if m.cl.Decommissioned(i) {
		return
	}
	var prev *Ring
	drain := -1
	if m.cl.Live(i) {
		prev = m.cl.Ring.Clone()
		m.cl.startDrain(i)
		drain = i
	} else {
		// Already off the ring: rebuild the pre-eviction ring (placement
		// is a pure function of membership) to diff against.
		prev = m.cl.Ring.Clone()
		prev.Add(i)
		m.cl.markDecommissioned(i)
	}
	plan := PlanMigration(prev, m.cl.Ring, m.cl.Replicas)
	m.start("decommission", prev, plan, drain)
}

func (m *Migrator) start(kind string, prev *Ring, plan []MoveRange, drain int) {
	m.nextId++
	mig := &Migration{
		Id:        m.nextId,
		Kind:      kind,
		Epoch:     m.cl.Ring.Epoch(),
		Ranges:    len(plan),
		StartedAt: m.cl.Sys.K.Now(),
		DoneAt:    -1,
	}
	jobs := buildJobs(plan)
	mig.Jobs = len(jobs)
	if a := m.cl.Audit; a != nil {
		a.Emit(mig.StartedAt, int(m.node.Id), audit.MigrationStart, audit.Fields{
			"id": mig.Id, "kind": kind, "epoch": mig.Epoch,
			"ranges": mig.Ranges, "jobs": mig.Jobs,
		})
	}
	if len(jobs) == 0 {
		// Nothing moved (e.g. R already spans the membership).
		if drain >= 0 {
			m.cl.finishDrain(drain)
		}
		m.conclude(mig)
		return
	}
	m.cl.beginHandoff(prev, plan)
	run := &migrationRun{
		mig:     mig,
		jobs:    jobs,
		done:    make([]bool, len(jobs)),
		attempt: make([]int, len(jobs)),
		timers:  make([]event.Timer, len(jobs)),
		left:    len(jobs),
		drain:   drain,
	}
	m.cur = run
	for j := range jobs {
		m.launch(j)
	}
}

// buildJobs groups the plan's ranges by transfer endpoints: all ranges
// bound for one destination from one source set travel on one
// connection.
func buildJobs(plan []MoveRange) []xferJob {
	var jobs []xferJob
	index := map[string]int{}
	for _, r := range plan {
		key := fmt.Sprintf("%d|%v", r.Dest, r.Sources)
		j, ok := index[key]
		if !ok {
			j = len(jobs)
			index[key] = j
			jobs = append(jobs, xferJob{dest: r.Dest, sources: r.Sources})
		}
		jobs[j].ranges = append(jobs[j].ranges, r)
	}
	return jobs
}

// launch starts (or retries) one transfer job: pick the next source on
// the ring that has not gone silent on the job, send it the transfer
// request, and arm the retry timer. The coordinator knows only the
// ring and what arrives: a source that is dead but not yet evicted
// costs the job one timeout.
func (m *Migrator) launch(j int) {
	run := m.cur
	if run == nil || run.done[j] {
		return
	}
	if run.attempt[j] >= migrationMaxAttempts {
		m.abort()
		return
	}
	run.timers[j].Cancel()
	run.attempt[j]++
	job := &run.jobs[j]
	src := -1
	for k := 0; k < len(job.sources); k++ {
		cand := job.sources[(run.attempt[j]-1+k)%len(job.sources)]
		if m.cl.Live(cand) && !slices.Contains(job.silent, cand) {
			src = cand
			break
		}
	}
	if src < 0 {
		// No source is left to ask (permanent loss at R=1). Cut the
		// ranges over empty - the keys fault in as misses, which is the
		// pre-migration behavior - and record the loss.
		m.completeJob(j, 0, true)
		return
	}
	// Backends added by plain AddBackend (outside Join) have no transfer
	// handler yet; install it before asking them to stream.
	m.register(src)
	payload := encodeXfer(run.mig.Id, uint32(j), uint32(run.attempt[j]),
		m.cl.Backends[job.dest].Node.Id, job.ranges)
	srcNode := m.cl.Backends[src].Node.Id
	attempt := run.attempt[j]
	m.mgr.Spawn(func(c *event.Ctx) {
		if m.cur != run || run.done[j] || run.attempt[j] != attempt {
			return
		}
		m.node.Messenger.Send(c, srcNode, m.id, payload)
		run.timers[j] = m.mgr.After(m.jobTimeout, func(c *event.Ctx) {
			if m.cur != run || run.done[j] {
				return
			}
			job.silent = append(job.silent, src)
			m.launch(j)
		})
	})
}

// onAck handles a source's transfer acknowledgment on the coordinator.
func (m *Migrator) onAck(c *event.Ctx, payload []byte) {
	if len(payload) != mgAckLen {
		return
	}
	kind := payload[0]
	migId := binary.BigEndian.Uint64(payload[1:9])
	j := int(binary.BigEndian.Uint32(payload[9:13]))
	attempt := int(binary.BigEndian.Uint32(payload[13:17]))
	moved := int(binary.BigEndian.Uint32(payload[17:21]))
	run := m.cur
	if run == nil || run.mig.Id != migId || j >= len(run.jobs) || run.done[j] {
		return
	}
	switch kind {
	case mgDone:
		if attempt != run.attempt[j] {
			// Only the live attempt's fence cuts the job over: the
			// coordinator gave up on the older one. Copies any attempt
			// delivers late are harmless - against a newer value or a
			// tombstone at the destination the stamp rule makes each a
			// no-op, and a tombstone outlasts every attempt
			// (memcached's tombstoneHorizon).
			return
		}
		// The fence returned: every entry of this job's stream is applied
		// at the destination.
		if a := m.cl.Audit; a != nil {
			a.Emit(c.Now(), int(m.node.Id), audit.MigrationFence, audit.Fields{
				"id": run.mig.Id, "job": j, "moved": moved,
			})
		}
		m.completeJob(j, moved, false)
	case mgFail:
		if attempt != run.attempt[j] {
			return // a newer attempt owns the job
		}
		run.timers[j].Cancel()
		run.timers[j] = m.mgr.After(migrationRetryDelay, func(c *event.Ctx) {
			if m.cur != run || run.done[j] {
				return
			}
			m.launch(j)
		})
	}
}

// fencedRound pipelines reqs to the memcached port at ip over a
// connection of its own, behind a Noop fence, written into the
// connection's payload elements once it is up and sent at every
// migrationChunkBytes. Exactly one of fenced and failed runs: the fence
// is the one request registered, so its OK means every request before it
// has been applied, and the network error a dying connection delivers to
// it means failure. The requests' own responses (each Delete answers)
// don't matter: their opaques are registered to nobody.
func fencedRound(c *event.Ctx, rt appnet.Runtime, ip netstack.Ipv4Addr, reqs []memcached.Request, fenced, failed func(c *event.Ctx)) {
	cc := dialConn(c, rt, ip, nil, 0)
	if cc.closed { // the dial failed at once
		failed(c)
		return
	}
	fence := cc.register(c, func(c *event.Ctx, r Response) {
		if !r.OK() {
			failed(c)
			return
		}
		cc.conn.Close(c)
		fenced(c)
	})
	cc.onConnect = func(c *event.Ctx) {
		n := 0
		for i := range reqs {
			cc.write(&reqs[i], fence+1+uint32(i))
			if n += reqs[i].Len(); n >= migrationChunkBytes {
				cc.transmit(c)
				n = 0
			}
		}
		cc.write(&memcached.Request{Opcode: memcached.OpNoop}, fence)
		cc.transmit(c)
	}
}

// completeJob cuts a finished job's ranges over and, when it was the
// last one, concludes the migration.
func (m *Migrator) completeJob(j int, moved int, lost bool) {
	run := m.cur
	run.done[j] = true
	run.timers[j].Cancel()
	for _, r := range run.jobs[j].ranges {
		m.cl.completeRange(r)
	}
	if a := m.cl.Audit; a != nil {
		a.Emit(m.cl.Sys.K.Now(), int(m.node.Id), audit.MigrationCutover, audit.Fields{
			"id": run.mig.Id, "job": j, "ranges": len(run.jobs[j].ranges), "lost": lost,
		})
	}
	run.mig.Moved += moved
	if lost {
		run.mig.Lost += len(run.jobs[j].ranges)
	}
	run.left--
	if run.left == 0 {
		m.cl.endHandoff()
		if run.drain >= 0 {
			m.cl.finishDrain(run.drain)
		}
		m.cur = nil
		m.conclude(run.mig)
	}
}

// abort cancels the active migration: the handoff window closes and
// routing reverts to the plain ring. An aborted join leaves the new
// backend on the ring serving what it received (read fall-through
// covers the rest); an aborted drain returns the backend to full
// membership.
func (m *Migrator) abort() {
	run := m.cur
	if run == nil {
		return
	}
	for _, t := range run.timers {
		t.Cancel()
	}
	m.cl.endHandoff()
	if run.drain >= 0 {
		m.cl.cancelDrain(run.drain)
	}
	run.mig.Aborted = true
	if a := m.cl.Audit; a != nil {
		a.Emit(m.cl.Sys.K.Now(), int(m.node.Id), audit.MigrationAbort, audit.Fields{"id": run.mig.Id})
	}
	m.cur = nil
	m.conclude(run.mig)
}

func (m *Migrator) conclude(mig *Migration) {
	if mig.DoneAt < 0 {
		mig.DoneAt = m.cl.Sys.K.Now()
	}
	if !mig.Aborted {
		if a := m.cl.Audit; a != nil {
			a.Emit(mig.DoneAt, int(m.node.Id), audit.MigrationDone, audit.Fields{
				"id": mig.Id, "moved": mig.Moved, "lost": mig.Lost,
			})
		}
	}
	m.last = mig
	for _, fn := range m.onDone {
		fn(mig)
	}
}

// register installs the source-side transfer handler on backend bi's
// node: asked for a range set, it scans its store snapshot and streams
// the matching entries to the destination over the memcached protocol.
// The handler touches only the backend's own state and the network -
// the same inter-node discipline the health monitor follows.
func (m *Migrator) register(bi int) {
	if m.registered[bi] {
		return
	}
	m.registered[bi] = true
	b := m.cl.Backends[bi]
	b.Node.Messenger.Register(m.id, func(c *event.Ctx, src hosted.NodeId, payload []byte) {
		if req, ok := decodeXfer(payload); ok {
			m.stream(c, b, src, req)
		}
	})
}

type xferReq struct {
	migId    uint64
	job      uint32
	attempt  uint32
	destNode hosted.NodeId
	ranges   []MoveRange
}

// stream executes one transfer on the source backend: snapshot-scan the
// store for keys hashing into the requested ranges, pipeline them to
// the destination shard as stamped quiet SETs - and each tombstone as a
// stamped Delete - fence with a Noop, and acknowledge the coordinator
// once the fence returns, at which point every entry is applied at the
// destination. The stamp rule orders each copy against whatever the
// destination holds: a value or tombstone dual-written there during the
// handoff is never clobbered by an older copy, a stale copy there is
// repaired, and a repeated stream changes nothing.
func (m *Migrator) stream(c *event.Ctx, b *Backend, coord hosted.NodeId, req xferReq) {
	// Each copy carries its entry's version stamp: the restored copy must
	// hold the SAME stamp as the surviving replicas, or later
	// cross-replica CAS comparisons (hot-key revalidation, fan-in folds)
	// would see it as a different version. Likewise the absolute expiry
	// travels verbatim so the entry keeps its exact deadline at the new
	// owner.
	var reqs []memcached.Request
	now := c.Now()
	b.Srv.Store.Scan(func(k string, e *memcached.Entry) bool {
		// Expiry is lazy: the store may still physically hold entries
		// whose deadline (or a flush_all cut) has passed. Filter them at
		// stream time - copying one to the destination would resurrect it
		// as live data under a fresh owner.
		tomb := e.Tombstone() && !e.Expired(now)
		if !tomb && !b.Srv.EntryLive(e, now) {
			return true
		}
		h := ringHash([]byte(k))
		for _, r := range req.ranges {
			switch {
			case !r.Contains(h):
				continue
			case tomb:
				reqs = append(reqs, memcached.Request{Opcode: memcached.OpDelete, Key: []byte(k), CAS: e.CAS})
			default:
				// The value is copied with the key: the requests are written
				// once the connection is up, and by then the store may have
				// let the entry go and its value's element been reused.
				reqs = append(reqs, memcached.SetQAbsExpiryRequest([]byte(k), e.AppendValue(nil), e.Flags, e.CAS, int64(e.Expires)))
			}
			break
		}
		return true
	})
	c.Charge(sim.Time(len(reqs)) * m.perEntryCPU)
	ack := encodeAck(mgDone, req.migId, req.job, req.attempt, uint32(len(reqs)))
	if len(reqs) == 0 {
		b.Node.Messenger.Send(c, coord, m.id, ack)
		return
	}
	dest := b.Node.Sys.Nodes[req.destNode]
	fencedRound(c, b.Node.Runtime, dest.IP(), reqs, func(c *event.Ctx) {
		b.Node.Messenger.Send(c, coord, m.id, ack)
	}, func(c *event.Ctx) {
		b.Node.Messenger.Send(c, coord, m.id,
			encodeAck(mgFail, req.migId, req.job, req.attempt, 0))
	})
}

func encodeXfer(migId uint64, job, attempt uint32, dest hosted.NodeId, ranges []MoveRange) []byte {
	b := make([]byte, 1+8+4+4+4+4+16*len(ranges))
	b[0] = mgXfer
	binary.BigEndian.PutUint64(b[1:9], migId)
	binary.BigEndian.PutUint32(b[9:13], job)
	binary.BigEndian.PutUint32(b[13:17], attempt)
	binary.BigEndian.PutUint32(b[17:21], uint32(dest))
	binary.BigEndian.PutUint32(b[21:25], uint32(len(ranges)))
	off := 25
	for _, r := range ranges {
		binary.BigEndian.PutUint64(b[off:], r.Lo)
		binary.BigEndian.PutUint64(b[off+8:], r.Hi)
		off += 16
	}
	return b
}

func decodeXfer(b []byte) (xferReq, bool) {
	if len(b) < 25 || b[0] != mgXfer {
		return xferReq{}, false
	}
	n := int(binary.BigEndian.Uint32(b[21:25]))
	if len(b) != 25+16*n {
		return xferReq{}, false
	}
	req := xferReq{
		migId:    binary.BigEndian.Uint64(b[1:9]),
		job:      binary.BigEndian.Uint32(b[9:13]),
		attempt:  binary.BigEndian.Uint32(b[13:17]),
		destNode: hosted.NodeId(binary.BigEndian.Uint32(b[17:21])),
	}
	off := 25
	for i := 0; i < n; i++ {
		req.ranges = append(req.ranges, MoveRange{
			Lo: binary.BigEndian.Uint64(b[off:]),
			Hi: binary.BigEndian.Uint64(b[off+8:]),
		})
		off += 16
	}
	return req, true
}

func encodeAck(kind byte, migId uint64, job, attempt uint32, moved uint32) []byte {
	b := make([]byte, mgAckLen)
	b[0] = kind
	binary.BigEndian.PutUint64(b[1:9], migId)
	binary.BigEndian.PutUint32(b[9:13], job)
	binary.BigEndian.PutUint32(b[13:17], attempt)
	binary.BigEndian.PutUint32(b[17:21], moved)
	return b
}
