package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/hosted"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// spyRuntime records every connection its runtime dials or accepts, so a
// test can read the pools of the interface under them once they close.
type spyRuntime struct {
	appnet.Runtime
	conns []appnet.Conn
}

func (s *spyRuntime) Listen(port uint16, accept func(conn appnet.Conn) appnet.Callbacks) error {
	return s.Runtime.Listen(port, func(conn appnet.Conn) appnet.Callbacks {
		s.conns = append(s.conns, conn)
		return accept(conn)
	})
}

func (s *spyRuntime) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb appnet.Callbacks, onConnect func(c *event.Ctx, conn appnet.Conn)) {
	onClose := cb.OnClose
	cb.OnClose = func(c *event.Ctx, conn appnet.Conn, err error) {
		s.conns = append(s.conns, conn)
		onClose(c, conn, err)
	}
	s.Runtime.Dial(c, ip, port, cb, onConnect)
}

// roundRig is a source node and a destination node whose memcached port
// is served by serve.
type roundRig struct {
	sys       *hosted.System
	src, dest *hosted.Node
	srcRT     *spyRuntime
	destRT    *spyRuntime
	fenced    int
	failed    int
}

func newRoundRig(t *testing.T, serve func(rt appnet.Runtime) error) *roundRig {
	sys := hosted.NewSystem()
	r := &roundRig{sys: sys, src: sys.AddNativeNode(1), dest: sys.AddNativeNode(1)}
	r.srcRT = &spyRuntime{Runtime: r.src.Runtime}
	r.destRT = &spyRuntime{Runtime: r.dest.Runtime}
	if err := serve(r.destRT); err != nil {
		t.Fatal(err)
	}
	return r
}

// start runs one fenced round of reqs from the source to the destination.
func (r *roundRig) start(reqs []memcached.Request) {
	r.src.Spawn(func(c *event.Ctx) {
		fencedRound(c, r.srcRT, r.dest.IP(), reqs,
			func(*event.Ctx) { r.fenced++ },
			func(*event.Ctx) { r.failed++ })
	})
}

// check requires exactly the wanted outcome, once, and no pooled
// element still out on either side: every connection has closed, and
// a closed connection holds nothing.
func (r *roundRig) check(t *testing.T, wantFenced bool) {
	t.Helper()
	if r.fenced+r.failed != 1 || (r.fenced == 1) != wantFenced {
		t.Fatalf("fenced ran %d times and failed %d, want exactly one (fenced: %v)", r.fenced, r.failed, wantFenced)
	}
	if len(r.srcRT.conns) != 1 {
		t.Fatalf("the source closed %d connections, want the round's one", len(r.srcRT.conns))
	}
	for side, rt := range map[string]*spyRuntime{"source": r.srcRT, "destination": r.destRT} {
		for _, conn := range rt.conns {
			payload, views := appnet.PoolsOf(conn)
			if payload.Outstanding() != 0 || views.Outstanding() != 0 {
				t.Errorf("%s: %d payload elements and %d views out after its connections closed",
					side, payload.Outstanding(), views.Outstanding())
			}
		}
	}
}

// migrationRecords is n stamped quiet SETs of 1 KiB values: enough to span
// several migrationChunkBytes sends and several send windows.
func migrationRecords(n int) []memcached.Request {
	reqs := make([]memcached.Request, n)
	for i := range reqs {
		reqs[i] = memcached.SetQAbsExpiryRequest([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{byte(i)}, 1024), 7, uint64(i+1), 0)
	}
	return reqs
}

func serveStore(store memcached.Store) func(rt appnet.Runtime) error {
	return memcached.NewServer(store, 1).Serve
}

// TestFencedRoundAnswered: the fence answers once every record is
// applied, a record older than the destination's copy of its key is a
// no-op there, and the round's connection closes with its elements home.
func TestFencedRoundAnswered(t *testing.T) {
	store := memcached.NewRCUStore()
	store.Set("key-0000", &memcached.Entry{Value: []byte("fresher"), CAS: 1 << 40})
	r := newRoundRig(t, serveStore(store))
	reqs := migrationRecords(40)
	r.start(reqs)
	r.sys.K.RunUntil(sim.Second)
	r.check(t, true)
	if store.Len() != len(reqs) {
		t.Fatalf("destination holds %d keys, want %d", store.Len(), len(reqs))
	}
	if e, _ := store.Get("key-0000"); string(e.Value) != "fresher" {
		t.Fatalf("an older quiet SET displaced the fresher value: %q", e.Value)
	}
}

// TestFencedRoundDestinationDeadBeforeHandshake: the handshake never
// completes, so no record is written, and the registered fence fails
// when the dial gives up.
func TestFencedRoundDestinationDeadBeforeHandshake(t *testing.T) {
	store := memcached.NewRCUStore()
	r := newRoundRig(t, serveStore(store))
	r.dest.Kill()
	r.start(migrationRecords(40))
	r.sys.K.RunUntil(300 * sim.Second)
	r.check(t, false)
	if store.Len() != 0 {
		t.Fatalf("a dead destination applied %d records", store.Len())
	}
}

// TestFencedRoundDestinationDiesMidStream: the destination dies once
// some records have been applied; the source gives up on it and the
// round fails.
func TestFencedRoundDestinationDiesMidStream(t *testing.T) {
	store := memcached.NewRCUStore()
	r := newRoundRig(t, serveStore(store))
	reqs := migrationRecords(200)
	r.start(reqs)
	for store.Len() == 0 {
		r.sys.K.RunUntil(r.sys.K.Now() + 10*sim.Microsecond)
	}
	r.dest.Kill()
	applied := store.Len()
	if applied >= len(reqs) {
		t.Fatalf("the whole stream landed before the kill")
	}
	r.sys.K.RunUntil(300 * sim.Second)
	r.check(t, false)
}

// TestFencedRoundWrongMagic: a destination answering with a request's
// magic desyncs the stream; the round fails at once rather than waiting
// for a fence that cannot be matched.
func TestFencedRoundWrongMagic(t *testing.T) {
	r := newRoundRig(t, func(rt appnet.Runtime) error {
		return rt.Listen(memcached.Port, func(appnet.Conn) appnet.Callbacks {
			answered := false
			return appnet.Callbacks{OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				if !answered {
					answered = true
					conn.Send(c, iobuf.Wrap(memcached.Request{Opcode: memcached.OpNoop}.Build(0)))
				}
			}}
		})
	})
	r.start(migrationRecords(4))
	r.sys.K.RunUntil(sim.Second)
	r.check(t, false)
}

// refusingRuntime fails every dial before Dial returns.
type refusingRuntime struct{ appnet.Runtime }

func (refusingRuntime) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb appnet.Callbacks, onConnect func(c *event.Ctx, conn appnet.Conn)) {
	cb.OnClose(c, nil, errors.New("refused"))
}

// TestFencedRoundDialRefused: a dial that fails inside Dial itself, before
// the fence could be registered, still fails the round exactly once.
func TestFencedRoundDialRefused(t *testing.T) {
	sys := hosted.NewSystem()
	src := sys.AddNativeNode(1)
	fenced, failed := 0, 0
	src.Spawn(func(c *event.Ctx) {
		fencedRound(c, refusingRuntime{src.Runtime}, src.IP(), migrationRecords(4),
			func(*event.Ctx) { fenced++ },
			func(*event.Ctx) { failed++ })
	})
	sys.K.RunUntil(sim.Second)
	if fenced != 0 || failed != 1 {
		t.Fatalf("fenced ran %d times and failed %d, want failed once", fenced, failed)
	}
}
