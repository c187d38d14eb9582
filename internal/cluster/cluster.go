package cluster

import (
	"fmt"
	"slices"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/hosted"
	"ebbrt/internal/netstack"
)

// Backend is one native node running a memcached shard.
type Backend struct {
	Node *hosted.Node
	Srv  *memcached.Server
}

// Options configures a deployment beyond the defaults.
type Options struct {
	// CoresPerBackend sizes each native backend (default 1).
	CoresPerBackend int
	// Replicas is R, the number of ring successors each key is written
	// to (default 1: no replication, the pre-fault-tolerance behavior).
	Replicas int
	// FrontendCores sizes the hosted frontend (default 2), for
	// deployments that drive client load through the frontend itself.
	FrontendCores int
	// HotKey configures the client Ebb's hot-key read cache for every
	// client created on this cluster (a client's own ClientOptions.HotKey
	// takes precedence when enabled). See HotKeyOptions.
	HotKey HotKeyOptions
	// HotWrite configures salted hot-write spreading. Unlike HotKey it
	// is purely deployment-level: salting changes where data lives, so
	// every client - cached or not - must salt and fan in consistently.
	// See HotWriteOptions.
	HotWrite HotWriteOptions
	// Net is the network stack configuration every node boots with (the
	// zero value is the calibrated stack). The lossy-link experiment sets
	// its FixedRTO and NoFastRetransmit to compare the adaptive transport
	// against the fixed-RTO baseline on identical deployments.
	Net netstack.Config
	// Store builds each backend's store (nil: the unbounded RCU table).
	// The MemoryPressure experiment supplies memcached.NewBoundedStore
	// here to run every shard under a byte budget.
	Store func() memcached.Store
	// Audit, when non-nil, receives every typed event the deployment
	// emits: TCP transitions from every node's stack, health-monitor
	// beats, ring membership changes, migration phases, and client quorum
	// outcomes. See internal/audit.
	Audit *audit.Log
}

// Cluster is a sharded memcached deployment: the hosted frontend plus N
// native backends on one switched network, each key served by the R
// ring successors the Ring selects.
type Cluster struct {
	Sys      *hosted.System
	Backends []*Backend
	Ring     *Ring
	// Frontends is the hosted tier: node 0's frontend plus any extras
	// added by AddFrontend, each typically running its own client Ebb
	// and load source.
	Frontends []*hosted.Node
	// Replicas is the deployment's replication factor R. Writes go to
	// all R replicas and ack on a majority quorum; reads prefer the
	// primary and fail over along the successor list.
	Replicas int
	// HotKey is the deployment-wide hot-key cache configuration clients
	// inherit (Options.HotKey).
	HotKey HotKeyOptions
	// HotWrite is the deployment-wide write-spreading configuration
	// (Options.HotWrite, resolved to its defaults when enabled).
	HotWrite HotWriteOptions
	// Audit is the deployment's event log (Options.Audit; nil drops every
	// event). Subsystems emit through it unconditionally - a nil Log is
	// safe - but hot paths still guard so no Fields map is built unheard.
	Audit *audit.Log

	// stampSeq feeds nextStamp: the coordinator-assigned, replica-wide
	// version stamps every client write carries. One counter for the
	// deployment keeps stamps totally ordered across clients and cores.
	stampSeq uint64

	// newStore builds each backend's store (Options.Store; nil means the
	// unbounded RCU table).
	newStore func() memcached.Store

	// writeSketch and salted implement hot-write spreading: the sketch
	// counts writes per key cluster-wide; a key crossing
	// HotWrite.PromoteMin is entered into salted with a round-robin
	// cursor and its writes spread over HotWrite.salts storage keys
	// from then on. Cluster-level (not per-client) on purpose: salting
	// changes placement, so a reader that disagreed with the writer
	// about a key's salt set would simply miss its newest value.
	writeSketch *cmSketch
	salted      map[string]*saltState
	hotWrite    HotWriteStats
	// deletes counts the Deletes any client has issued, and deleteLog
	// holds the ring hashes of the last of them (deletedSince). A replica
	// orders stamped writes against a Delete by its tombstone, but only
	// for a while and only at the replica: a hint replay (hint.go), which
	// may come later than any tombstone lasts, and a hot-key fill or
	// re-stamp, which touch no replica, issued before a Delete of their
	// key stand down by this log instead.
	deletes   uint64
	deleteLog [256]uint64

	down            []bool // per backend: evicted from the ring
	draining        []bool // off the ring but still serving its old share (live decommission)
	decommissioned  []bool // permanently removed; never restored by the monitor
	watchers        []func(backend int, up bool)
	handoffWatchers []func(pending []MoveRange)

	// handoff, when non-nil, is an in-progress migration: reads and
	// writes for keys inside a still-pending moved range are dual-routed
	// across the old and new owner sets until the migrator cuts the
	// range over.
	handoff *handoffState
}

// handoffState is the dual-routing window of one migration: the ring as
// it was before the membership change, plus the moved ranges that have
// not yet been streamed to their new owners.
type handoffState struct {
	prev    *Ring
	pending []MoveRange
}

func (ho *handoffState) covers(h uint64) bool {
	for _, r := range ho.pending {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// New boots a deployment with the given number of single-shard native
// backends, each with coresPerBackend cores, and no replication.
func New(backends, coresPerBackend int) *Cluster {
	return NewCluster(backends, Options{CoresPerBackend: coresPerBackend})
}

// NewCluster boots a deployment under the given options. The hosted
// frontend comes up first (it owns id allocation, as in the single-node
// system); the backends then join and immediately start serving.
func NewCluster(backends int, opt Options) *Cluster {
	if opt.CoresPerBackend <= 0 {
		opt.CoresPerBackend = 1
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 1
	}
	if opt.Replicas > backends {
		panic(fmt.Sprintf("cluster: %d replicas exceed %d backends", opt.Replicas, backends))
	}
	cl := &Cluster{
		Sys:      hosted.NewSystemOpts(hosted.SystemOptions{FrontendCores: opt.FrontendCores, Net: opt.Net, Audit: opt.Audit}),
		Ring:     NewRing(DefaultVNodes),
		Replicas: opt.Replicas,
		HotKey:   opt.HotKey,
		HotWrite: opt.HotWrite,
		newStore: opt.Store,
		Audit:    opt.Audit,
	}
	cl.Frontends = []*hosted.Node{cl.Sys.Frontend()}
	if cl.HotWrite.Enable {
		cl.HotWrite = cl.HotWrite.withDefaults()
		cl.writeSketch = newCMSketch(sketchWidth, sketchDepth)
		cl.salted = map[string]*saltState{}
	}
	for i := 0; i < backends; i++ {
		cl.AddBackend(opt.CoresPerBackend)
	}
	return cl
}

// AddBackend boots one more native node, starts its memcached shard, and
// joins it to the ring. Keys that hash onto the new backend's points
// migrate to it; the consistent ring keeps that share bounded near
// 1/(n+1) of the keyspace. No store handoff is performed - as with real
// memcached, migrated keys fault in as cache misses. Migrator.Join is
// the streamed alternative that keeps the cache warm through the join.
func (cl *Cluster) AddBackend(cores int) *Backend {
	node := cl.Sys.AddNativeNode(cores)
	var store memcached.Store
	if cl.newStore != nil {
		store = cl.newStore()
	} else {
		store = memcached.NewRCUStore()
	}
	srv := memcached.NewServer(store, cores)
	if err := srv.Serve(node.Runtime); err != nil {
		panic(err)
	}
	b := &Backend{Node: node, Srv: srv}
	cl.Backends = append(cl.Backends, b)
	cl.down = append(cl.down, false)
	cl.draining = append(cl.draining, false)
	cl.decommissioned = append(cl.decommissioned, false)
	cl.Ring.Add(len(cl.Backends) - 1)
	return b
}

// AddFrontend boots one more hosted (GPOS) node for the frontend tier
// and returns it. The new node serves no shard and joins no ring - like
// node 0 it is pure client tier, but unlike node 0 it owns no Ebb id
// allocation. The FrontendScaling experiment runs one client Ebb and
// one load source per frontend.
func (cl *Cluster) AddFrontend(cores int) *hosted.Node {
	node := cl.Sys.AddHostedNode(cores)
	cl.Frontends = append(cl.Frontends, node)
	return node
}

// AddLoadGenerator boots an extra native node that serves nothing - a
// client machine for driving load at the shards directly, as the
// paper's mutilate host does. It is not added to the ring.
func (cl *Cluster) AddLoadGenerator(cores int) *hosted.Node {
	return cl.Sys.AddNativeNode(cores)
}

// Watch registers fn to be called whenever a backend's ring membership
// changes: up=false on eviction, up=true on restoration. Callbacks run
// synchronously inside EvictBackend/RestoreBackend.
func (cl *Cluster) Watch(fn func(backend int, up bool)) {
	cl.watchers = append(cl.watchers, fn)
}

// WatchHandoff registers fn to be called synchronously when a
// migration's dual-routing window opens, with the ranges about to
// move. The client Ebb uses it to flush hot-key cache entries covered
// by the migration before any dual-routed operation runs.
func (cl *Cluster) WatchHandoff(fn func(pending []MoveRange)) {
	cl.handoffWatchers = append(cl.handoffWatchers, fn)
}

// EvictBackend removes a backend from the ring, rerouting its keys to
// their ring successors (which, under replication, already hold them).
// The backend object and its node stay in place so a recovered machine
// can be restored. Eviction is idempotent.
func (cl *Cluster) EvictBackend(i int) {
	if cl.down[i] {
		return
	}
	cl.down[i] = true
	cl.Ring.Remove(i)
	// Emitted here, at the membership change itself, so the event fires
	// whether the health monitor, a migration, or a test evicted the
	// backend.
	if a := cl.Audit; a != nil {
		a.Emit(cl.Sys.K.Now(), int(cl.Backends[i].Node.Id), audit.HealthEvicted, audit.Fields{"backend": i})
	}
	for _, fn := range cl.watchers {
		fn(i, false)
	}
}

// RestoreBackend re-adds an evicted backend to the ring. Its store
// resumes serving whatever it held before the failure; keys written
// while it was out fault in from the surviving replicas via the
// client's read fall-through. Restoration is idempotent; a
// decommissioned backend is never restored.
func (cl *Cluster) RestoreBackend(i int) {
	if !cl.down[i] || cl.decommissioned[i] {
		return
	}
	cl.down[i] = false
	cl.Ring.Add(i)
	if a := cl.Audit; a != nil {
		a.Emit(cl.Sys.K.Now(), int(cl.Backends[i].Node.Id), audit.HealthRestored, audit.Fields{"backend": i})
	}
	for _, fn := range cl.watchers {
		fn(i, true)
	}
}

// Live reports whether backend i is on the ring.
func (cl *Cluster) Live(i int) bool { return !cl.down[i] }

// Decommissioned reports whether backend i has been permanently removed.
func (cl *Cluster) Decommissioned(i int) bool { return cl.decommissioned[i] }

// Servable reports whether the client may still submit operations to
// backend i: everything on the ring, plus a draining backend - off the
// ring but serving its old key share until the migrator finishes
// streaming it away.
func (cl *Cluster) Servable(i int) bool { return !cl.down[i] || cl.draining[i] }

// LiveBackends counts backends currently on the ring.
func (cl *Cluster) LiveBackends() int {
	n := 0
	for _, d := range cl.down {
		if !d {
			n++
		}
	}
	return n
}

// Route returns the backend owning key's primary.
func (cl *Cluster) Route(key []byte) *Backend {
	return cl.Backends[cl.Ring.Lookup(key)]
}

// ReplicaSet returns the backends holding key, primary first. The set
// shrinks below R only when fewer than R backends remain on the ring.
func (cl *Cluster) ReplicaSet(key []byte) []int {
	return cl.Ring.LookupN(key, cl.Replicas)
}

// ReadSet returns the backends a read should try, in preference order.
// Outside a handoff it is the replica set. For a key inside a pending
// moved range it is the old owners (who certainly hold warm data)
// followed by the new owners, deduplicated - the read falls through
// old to new, so the key is served wherever it currently lives.
func (cl *Cluster) ReadSet(key []byte) []int {
	return cl.appendReadSet(nil, ringHash(key))
}

// appendReadSet appends the read set of hash h to dst: what the read
// path's record fills its own array with.
func (cl *Cluster) appendReadSet(dst []int, h uint64) []int {
	if ho := cl.handoff; ho != nil && ho.covers(h) {
		start := len(dst)
		dst = ho.prev.appendOwners(dst, h, cl.Replicas)
		return dedupAfter(cl.Ring.appendOwners(dst, h, cl.Replicas), start)
	}
	return cl.Ring.appendOwners(dst, h, cl.Replicas)
}

// appendWritePlan appends to dst the backends a write of hash h must be
// delivered to, and reports how many of them - a prefix - count toward
// its quorum. Outside a handoff both are the replica set. During handoff
// a write in a pending moved range is delivered to the union of new and
// old owners, but the quorum is counted over the NEW owners only: an
// acked write is then guaranteed to survive the cutover (a majority of
// the future replica set holds it), while the old owners receive it
// best-effort so pre-cutover reads - which try them first - stay fresh.
// A write planned before the window opened re-sends itself to the new
// owners (writeRecord.onAck).
func (cl *Cluster) appendWritePlan(dst []int, h uint64) (targets []int, quorum int) {
	start := len(dst)
	dst = cl.Ring.appendOwners(dst, h, cl.Replicas)
	quorum = len(dst) - start
	if ho := cl.handoff; ho != nil && ho.covers(h) {
		dst = dedupAfter(ho.prev.appendOwners(dst, h, cl.Replicas), start)
	}
	return dst, quorum
}

// stampBase offsets coordinator-assigned version stamps above any
// server-minted CAS (Server.nextCAS counts up from 1): a stamped write
// must always supersede an entry that predates stamping (a direct
// Prepopulate, a text-protocol store), and the two counters must never
// produce the same number for different writes of one key.
const stampBase uint64 = 1 << 48

// nextStamp returns the next replica-wide version stamp. The client Ebb
// draws one per write at submit; every replica stores and echoes it
// verbatim, which is what makes CAS comparisons meaningful across a
// replica set. The counter is deployment-wide shared state like the
// ring - coordination the simulation models at the cluster object.
func (cl *Cluster) nextStamp() uint64 {
	cl.stampSeq++
	return stampBase + cl.stampSeq
}

// saltState is one promoted key's spreading state: the write
// round-robin cursor, plus the latest acknowledged salt and stamp -
// the shard a read targets first and the version it verifies against.
// Deployment-wide shared state like the ring (the simulation models the
// coordination at the cluster object): every client must round-robin
// and target consistently or reads would miss fresh writes.
type saltState struct {
	rr        int
	lastSalt  int
	lastStamp uint64
}

// writeSaltFor routes one write of key: it counts the write in the
// cluster's write-frequency sketch, promotes the key into the salted
// set when it crosses the threshold, and for a salted key returns the
// round-robin salt's storage key plus which salt was picked. Unsalted
// (or spreading disabled): the key itself, spread=false.
func (cl *Cluster) writeSaltFor(key []byte) (skey []byte, salt int, spread bool) {
	if cl.writeSketch == nil {
		return key, 0, false
	}
	st, ok := cl.salted[string(key)]
	if !ok {
		if cl.writeSketch.touch(ringHash(key)) < cl.HotWrite.PromoteMin {
			return key, 0, false
		}
		st = &saltState{}
		cl.salted[string(key)] = st
		cl.hotWrite.Promoted++
	}
	s := st.rr % cl.HotWrite.salts
	st.rr++
	cl.hotWrite.SaltedWrites++
	return saltedKey(key, s), s, true
}

// noteSaltAck records a spread write's quorum acknowledgment: the salt
// now holding the newest acked version, folded monotonically by stamp -
// a slower older write acking after a newer one must not point reads at
// its shard.
func (cl *Cluster) noteSaltAck(key []byte, salt int, stamp uint64) {
	if st, ok := cl.salted[string(key)]; ok && stamp > st.lastStamp {
		st.lastStamp = stamp
		st.lastSalt = salt
	}
}

// saltTarget reports which salted shard holds a spread key's latest
// acked write, and that write's stamp for the read to verify against.
// ok is false when nothing has acked since promotion (or since a
// delete): the read must fan in across every salt instead.
func (cl *Cluster) saltTarget(key []byte) (salt int, stamp uint64, ok bool) {
	st, present := cl.salted[string(key)]
	if !present || st.lastStamp == 0 {
		return 0, 0, false
	}
	return st.lastSalt, st.lastStamp, true
}

// noteSaltDelete stands the targeted-read record down: after a delete
// there is no "latest written shard" to serve from, so reads fan in
// (and find absence everywhere) until a new write acks.
func (cl *Cluster) noteSaltDelete(key []byte) {
	if st, ok := cl.salted[string(key)]; ok {
		st.lastStamp = 0
	}
}

// saltsOf reports how many salted storage keys a read of key must fan
// in over: 1 for an unsalted key, HotWrite.salts for a promoted one.
// Read-only - reads must not advance the write sketch.
func (cl *Cluster) saltsOf(key []byte) int {
	if cl.salted == nil {
		return 1
	}
	if _, ok := cl.salted[string(key)]; ok {
		return cl.HotWrite.salts
	}
	return 1
}

// HotWriteStats reports the deployment's write-spreading counters.
func (cl *Cluster) HotWriteStats() HotWriteStats {
	s := cl.hotWrite
	if cl.salted != nil {
		s.Promoted = len(cl.salted)
	}
	return s
}

// Migrating reports whether a handoff window is open.
func (cl *Cluster) Migrating() bool { return cl.handoff != nil }

// beginHandoff opens the dual-routing window for a migration.
func (cl *Cluster) beginHandoff(prev *Ring, plan []MoveRange) {
	cl.handoff = &handoffState{
		prev:    prev,
		pending: append([]MoveRange(nil), plan...),
	}
	for _, fn := range cl.handoffWatchers {
		fn(cl.handoff.pending)
	}
}

// noteDelete enters a Delete of key into the delete log.
func (cl *Cluster) noteDelete(key []byte) {
	cl.deleteLog[cl.deletes%uint64(len(cl.deleteLog))] = ringHash(key)
	cl.deletes++
}

// deletedSince reports whether a Delete of the key with ring hash h may
// have been issued after the cluster's first n: yes if the log holds one,
// or if it no longer reaches back that far.
func (cl *Cluster) deletedSince(n, h uint64) bool {
	if cl.deletes-n > uint64(len(cl.deleteLog)) {
		return true
	}
	for ; n < cl.deletes; n++ {
		if cl.deleteLog[n%uint64(len(cl.deleteLog))] == h {
			return true
		}
	}
	return false
}

// completeRange cuts one moved range over: keys inside it now route
// purely by the live ring.
func (cl *Cluster) completeRange(r MoveRange) {
	ho := cl.handoff
	if ho == nil {
		return
	}
	keep := ho.pending[:0]
	for _, p := range ho.pending {
		if p.Lo != r.Lo || p.Hi != r.Hi || p.Dest != r.Dest {
			keep = append(keep, p)
		}
	}
	ho.pending = keep
}

// endHandoff closes the dual-routing window.
func (cl *Cluster) endHandoff() { cl.handoff = nil }

// startDrain begins a live decommission: backend i leaves the ring (new
// placement no longer includes it) but keeps serving its old share
// until the migrator finishes streaming it to the new owners. The
// backend is marked decommissioned immediately so the health monitor
// never restores it.
func (cl *Cluster) startDrain(i int) {
	cl.decommissioned[i] = true
	cl.draining[i] = true
	cl.Ring.Remove(i)
}

// finishDrain completes a decommission: the backend stops serving and
// clients tear down their pools to it.
func (cl *Cluster) finishDrain(i int) {
	cl.draining[i] = false
	if !cl.down[i] {
		cl.down[i] = true
		for _, fn := range cl.watchers {
			fn(i, false)
		}
	}
}

// cancelDrain aborts a live decommission, returning the backend to
// full membership.
func (cl *Cluster) cancelDrain(i int) {
	cl.draining[i] = false
	cl.decommissioned[i] = false
	if !cl.down[i] {
		cl.Ring.Add(i)
	}
}

// markDecommissioned records the permanent removal of an
// already-evicted backend (a dead node being re-replicated around).
func (cl *Cluster) markDecommissioned(i int) {
	cl.decommissioned[i] = true
	if !cl.down[i] {
		cl.down[i] = true
		cl.Ring.Remove(i)
		for _, fn := range cl.watchers {
			fn(i, false)
		}
	}
}

// LiveHolders counts the live, reachable backends whose store currently
// holds key - the key's actual replica count, as distinct from the
// ring's intended one. It peeks at the stores directly (a simulation-
// level introspection for experiments and tests, not a data-path
// operation).
func (cl *Cluster) LiveHolders(key []byte) int {
	n := 0
	for i, b := range cl.Backends {
		if !cl.Live(i) || !b.Node.Alive() {
			continue
		}
		// A dead copy (expired, or behind a due flush) does not hold the
		// key: no request path would serve it.
		if e, ok := b.Srv.Store.Get(string(key)); ok && b.Srv.EntryLive(e, cl.Sys.K.Now()) {
			n++
		}
	}
	return n
}

// dedupAfter drops, in place, every backend in s[start:] that appeared
// earlier in s[start:], keeping first occurrences in order.
func dedupAfter(s []int, start int) []int {
	out := s[:start]
	for _, b := range s[start:] {
		if !slices.Contains(out[start:], b) {
			out = append(out, b)
		}
	}
	return out
}
