package cluster

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
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
	// Value is lent to the callback that receives the Response and is
	// valid until that callback returns: it views the bytes the answer
	// arrived in, the hot-key cache entry that served it, or a
	// GetMulti's slot buffer, and each is reused afterwards. A caller
	// that keeps the value copies it.
	Value []byte
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
// r.Value is valid until the callback returns. A cache hit's value is
// the cache entry's own buffer, so a Set or Delete of the same key from
// inside the callback ends that loan early.
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
	// As a migration's dual-routing window opens, each core forwards the
	// hints it keeps for the moved ranges to their new owners (hint.go)
	// and flushes the hot-key entries they cover: the window must never
	// serve a cached value that predates it (reads inside the window
	// additionally bypass the cache, closing the spawn race).
	cl.WatchHandoff(func(pending []MoveRange) {
		ranges := append([]MoveRange(nil), pending...)
		covered := func(h uint64) bool {
			for _, r := range ranges {
				if r.Contains(h) {
					return true
				}
			}
			return false
		}
		for corei := range mgrs {
			mgrs[corei].Spawn(func(c *event.Ctx) {
				rep, ok := cli.ref.GetIfPresent(corei)
				if !ok {
					return
				}
				rep.forwardHints(c, ranges)
				if rep.hot == nil {
					return
				}
				n := rep.hot.cache.flushWhere(func(e *cacheEntry) bool {
					if covered(e.hash) {
						return true
					}
					// A write-spread key's salted shards hash elsewhere
					// than the entry itself; a moved shard also makes the
					// cached copy unsafe across the cutover.
					for s := 1; s < cli.cl.saltsOf(e.key); s++ {
						if covered(ringHash(saltedKey(e.key, s))) {
							return true
						}
					}
					return false
				})
				rep.hot.stats.Flushes += uint64(n)
			})
		}
	})
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

// maybeRevalidate samples one in revalidateEvery cache hits for an
// asynchronous CAS check against the replica set: if the owner's stamp
// moved, the cached copy is re-stamped with the fresh value (or dropped
// on a miss). Together with the TTL this bounds how long another
// client's write can go unseen. The check is a read record of its own,
// marked reval, whose answer finish hands to revalidate.
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
	rec := rep.newRead(key)
	rec.reval = true
	cli.fetch(c, rec)
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

func (cli *Client) rep(c *event.Ctx) *clientRep { return cli.ref.Get(c.Core().ID) }

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
	// reads, rounds, batches and writes are the core's free lists of key
	// reads in flight (read.go), multi-op rounds in flight on any of its
	// connections (batch.go), GetMulti calls not yet answered, and quorum
	// writes not yet let go of (write.go).
	reads   freelist.List[*readRecord]
	rounds  freelist.List[*readRound]
	batches freelist.List[*multiGet]
	writes  freelist.List[*writeRecord]
	// hints are the failed copies of acknowledged Sets this core keeps
	// (hint.go); kept holds those waiting for their backend to answer.
	hints freelist.List[*hint]
	kept  []*hint
}

func newClientRep(cli *Client, mgr *event.Manager) *clientRep {
	r := &clientRep{cli: cli, mgr: mgr, pools: map[int]*backendPool{}, queue: newReadQueue(cli.opt.Batch)}
	if cli.opt.HotKey.Enable {
		r.hot = newHotKeyRep(cli.opt.HotKey)
	}
	r.reads.New = func() *readRecord { return newReadRecord(r) }
	r.rounds.New = func() *readRound { return newReadRound(r) }
	r.batches.New = func() *multiGet { return &multiGet{rep: r} }
	r.writes.New = func() *writeRecord { return newWriteRecord(r) }
	r.hints.New = func() *hint { return newHint(r) }
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
		cc.rep, cc.backend = r, backend
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
// a long value spanning several, and the connection frees them once it
// is done.
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
	// rep and backend are the core and the backend of a client pool's
	// connection (nil for the migrator's own): an answer on it replays
	// the hints rep keeps for backend (hint.go).
	rep     *clientRep
	backend int
}

func (cc *clientConn) send(c *event.Ctx, req *memcached.Request, cb Callback) int {
	cc.write(req, cc.register(c, cb))
	return cc.transmit(c)
}

// write appends one request frame to the packet being written: its head
// whole, its value spread over payload elements as it fits.
func (cc *clientConn) write(req *memcached.Request, opaque uint32) {
	req.PutHead(cc.tx.Next(req.HeadLen()), opaque)
	cc.tx.Write(req.Value)
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
			if rep := cc.rep; rep != nil && len(rep.kept) > 0 {
				rep.replayHints(c, cc.backend)
			}
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
			// Lent for the callback: the receive bytes are reused once
			// onData returns. The capacity is cut so an append by the
			// callee cannot run into the next frame.
			resp.Value = body[hdr.ExtrasLen:len(body):len(body)]
		}
		op.cb(c, resp)
	}
}
