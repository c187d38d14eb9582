package main

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// pairTopo is the paper's two-machine testbed: an 8-core client machine
// running the benchmark's own binary-protocol client, linked to a
// one-core EbbRT server running memcached over the RCU store.
type pairTopo struct {
	e     *engine
	pair  *testbed.Pair
	srv   *memcached.Server
	conns []*pairConn
	next  int
}

const (
	pairServerCores = 1
	pairClientCores = 8
)

// pairConn is one client connection: a FIFO of arrivals waiting for a
// pipeline slot, and the arrivals in flight in the order their answers
// must come back.
type pairConn struct {
	t        *pairTopo
	conn     appnet.Conn
	mgr      *event.Manager
	queue    []*arrival
	inflight []*arrival
	rx       []byte
	dead     bool
}

func buildPair(sp *spec, seed uint64, traced bool) (*topology, error) {
	pair := testbed.NewPair(testbed.EbbRT, pairServerCores, pairClientCores)
	pop := newPopulation(seed, sp)
	var tr *tracer
	var store memcached.Store = memcached.NewRCUStore()
	serverRT := pair.Server
	if traced {
		tr = newTracer(pair.K, pop, false)
		store = &tracedStore{Store: store, t: tr}
		serverRT = &tracedRuntime{Runtime: serverRT, t: tr, serverSide: true}
	}
	srv := memcached.NewServer(store, pairServerCores)
	if err := srv.Serve(serverRT); err != nil {
		return nil, fmt.Errorf("memcached serve: %w", err)
	}
	values := make([][]byte, len(pop.keys))
	for i := range values {
		values[i] = pop.value(i, 0)
	}
	srv.Prepopulate(pop.keys, values)

	pt := &pairTopo{pair: pair, srv: srv}
	pt.e = newEngine(pair.K, sp, pop, seed, tr)
	pt.e.tgt = pt
	mgrs := pair.Client.Mgrs()
	for i := 0; i < sp.conns; i++ {
		pc := &pairConn{t: pt, mgr: mgrs[i%len(mgrs)]}
		pt.conns = append(pt.conns, pc)
		pc.mgr.Spawn(func(c *event.Ctx) {
			pair.Client.Dial(c, testbed.ServerIP, memcached.Port, appnet.Callbacks{
				OnData:  func(c *event.Ctx, _ appnet.Conn, payload *iobuf.IOBuf) { pc.onData(c, payload) },
				OnClose: func(c *event.Ctx, _ appnet.Conn, err error) { pc.desync(fmt.Sprintf("connection closed: %v", err)) },
			}, func(c *event.Ctx, conn appnet.Conn) { pc.conn = conn })
		})
	}
	pair.K.RunFor(5 * sim.Millisecond)
	for i, pc := range pt.conns {
		if pc.conn == nil {
			return nil, fmt.Errorf("connection %d did not establish", i)
		}
	}
	return &topology{e: pt.e, pair: pt}, nil
}

// submit implements target: connections are taken round-robin and each
// arrival is handed to its connection's core.
func (pt *pairTopo) submit(a *arrival) {
	pc := pt.conns[pt.next%len(pt.conns)]
	pt.next++
	pc.mgr.Spawn(func(c *event.Ctx) {
		tr := pt.e.tr
		sp := tr.begin(spLoadGen, c, int32(a.id))
		pt.e.submitted(c, a)
		pc.queue = append(pc.queue, a)
		pc.pump(c)
		tr.end(sp, c)
	})
}

// pump sends queued arrivals while the pipeline has room.
func (pc *pairConn) pump(c *event.Ctx) {
	e := pc.t.e
	for len(pc.queue) > 0 && len(pc.inflight) < e.sp.pipeline {
		a := pc.queue[0]
		pc.queue = pc.queue[1:]
		if pc.dead {
			e.fail(a, "connection lost before the request was sent")
			e.complete(c, a)
			continue
		}
		var pkt []byte
		if a.isSet {
			pkt = buildSet(e.pop, a.keys[0], a.ver, a.id)
		} else {
			pkt = buildGet(e.pop.keys[a.keys[0]], a.id)
		}
		pc.inflight = append(pc.inflight, a)
		a.send = vnow(c)
		a.call = a.send // no client library between submit and send
		sp := e.tr.begin(spTxClient, c, int32(a.id))
		pc.conn.Send(c, iobuf.Wrap(pkt))
		e.tr.end(sp, c)
	}
}

// onData reassembles the response stream and scores whole frames.
// Answers come back in request order, so each must carry the opaque of
// the oldest request in flight; anything else is a desynced stream.
func (pc *pairConn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	if pc.dead {
		return
	}
	e := pc.t.e
	sp := e.tr.begin(spLoadGen, c, -1)
	defer e.tr.end(sp, c)
	payload.ForEach(func(b *iobuf.IOBuf) { pc.rx = append(pc.rx, b.Data()...) })
	used := 0
	for len(pc.rx)-used > 0 {
		if len(pc.inflight) == 0 {
			pc.desync("bytes arrived with no request in flight")
			return
		}
		a := pc.inflight[0]
		stamp(&a.resp, vnow(c))
		if len(pc.rx)-used < hdrLen {
			break
		}
		h := parseHdr(pc.rx[used:])
		if h.magic != magicResp || h.opaque != a.id || h.keyLen+h.extras > h.bodyLen {
			pc.desync(fmt.Sprintf("response header magic %#x opaque %d, expected opaque %d", h.magic, h.opaque, a.id))
			return
		}
		if len(pc.rx)-used < hdrLen+h.bodyLen {
			break
		}
		body := pc.rx[used+hdrLen : used+hdrLen+h.bodyLen]
		used += hdrLen + h.bodyLen
		if a.isSet {
			e.wrote(a, h.status)
		} else {
			e.read(a, a.keys[0], h.status, body[h.extras+h.keyLen:])
		}
		pc.inflight = pc.inflight[1:]
		e.complete(c, a)
	}
	pc.rx = pc.rx[:copy(pc.rx, pc.rx[used:])]
	pc.pump(c)
}

// desync retires the connection: everything in flight or queued on it
// fails, and the run goes on over the others.
func (pc *pairConn) desync(why string) {
	if pc.dead {
		return
	}
	pc.dead = true
	e := pc.t.e
	for _, a := range append(pc.inflight, pc.queue...) {
		e.fail(a, "%s", why)
		a.done = true
		e.outstanding--
	}
	pc.inflight, pc.queue = nil, nil
}
