package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// TestClusterEndToEnd drives set/get/delete through the hosted
// frontend's client Ebb against 4 native backends and verifies both the
// results and that every backend actually served a share.
func TestClusterEndToEnd(t *testing.T) {
	cl := New(4, 1)
	front := cl.Sys.Frontend()
	cli := NewClient(cl, front)

	const nKeys = 64
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("e2e-key-%d", i))
	}

	got := map[string]string{}
	var setFails, deleted, missAfterDelete int
	front.Spawn(func(c *event.Ctx) {
		for i := range keys {
			key := keys[i]
			val := []byte(fmt.Sprintf("val-%d", i))
			cli.Set(c, key, val, 0, func(c *event.Ctx, r Response) {
				if !r.OK() {
					setFails++
					return
				}
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					if r.OK() {
						got[string(key)] = string(r.Value)
					}
					// Delete every fourth key and confirm it misses.
					if len(key) > 0 && key[len(key)-1] == '0' {
						cli.Delete(c, key, func(c *event.Ctx, r Response) {
							if r.OK() {
								deleted++
							}
							cli.Get(c, key, func(c *event.Ctx, r Response) {
								if !r.OK() {
									missAfterDelete++
								}
							})
						})
					}
				})
			})
		}
	})
	cl.Sys.K.RunUntil(5 * sim.Second)

	if setFails != 0 {
		t.Fatalf("%d sets failed", setFails)
	}
	if len(got) != nKeys {
		t.Fatalf("got %d of %d values back", len(got), nKeys)
	}
	for i := range keys {
		want := fmt.Sprintf("val-%d", i)
		if got[string(keys[i])] != want {
			t.Errorf("key %s: got %q want %q", keys[i], got[string(keys[i])], want)
		}
	}
	if deleted == 0 || deleted != missAfterDelete {
		t.Errorf("delete path broken: deleted=%d missAfterDelete=%d", deleted, missAfterDelete)
	}
	// The keyspace must actually be sharded: every backend served
	// requests, and the sum matches what the stores hold, a deleted key
	// as the tombstone its stamped Delete left.
	var totalHeld int
	for i, b := range cl.Backends {
		if b.Srv.Requests == 0 {
			t.Errorf("backend %d served no requests - keys not sharded", i)
		}
		b.Srv.Store.Scan(func(_ string, e *memcached.Entry) bool {
			if !e.Tombstone() {
				totalHeld++
			}
			return true
		})
	}
	if want := nKeys - deleted; totalHeld != want {
		t.Errorf("stores hold %d keys, want %d", totalHeld, want)
	}
}

// nullConn is an appnet.Conn that swallows sends (for unit-testing the
// client connection's stream handling without a network).
type nullConn struct{ closed bool }

func (n *nullConn) Send(c *event.Ctx, p *iobuf.IOBuf) {}
func (n *nullConn) Close(c *event.Ctx)                { n.closed = true }
func (n *nullConn) Core() int                         { return 0 }

// TestClientConnDesyncFailsOutstanding: a malformed or wrong-magic
// response must tear the connection down and fail every in-flight
// operation, not wedge the parser forever.
func TestClientConnDesyncFailsOutstanding(t *testing.T) {
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("c", 1))
	mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
	done := false
	mgr.Spawn(func(c *event.Ctx) {
		nc := &nullConn{}
		cc := &clientConn{conn: nc, connected: true, inflight: map[uint32]inflightOp{}}
		failures := 0
		cc.inflight[1] = inflightOp{cb: func(c *event.Ctx, r Response) {
			if r.OK() {
				t.Error("desynced op reported success")
			}
			failures++
		}}
		junk := make([]byte, memcached.HeaderLen)
		junk[0] = memcached.MagicRequest // request magic on the response path
		cc.onData(c, iobuf.Wrap(junk))
		if failures != 1 {
			t.Errorf("%d callbacks failed, want 1", failures)
		}
		if !cc.closed || !nc.closed {
			t.Errorf("connection not torn down: cc.closed=%v conn.closed=%v", cc.closed, nc.closed)
		}
		if cc.rx.Len() != 0 {
			t.Errorf("rx buffer retained %d bytes after desync", cc.rx.Len())
		}
		done = true
	})
	k.RunUntil(1 * sim.Second)
	if !done {
		t.Fatal("event did not run")
	}
}

var _ appnet.Conn = (*nullConn)(nil)

// TestClientConnFailReportsNetworkError: connection failure must surface
// as StatusNetworkError, never as a cache miss - the regression that
// once made every backend crash look like a burst of misses and left
// failover nothing to react to.
func TestClientConnFailReportsNetworkError(t *testing.T) {
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("c", 1))
	mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
	done := false
	mgr.Spawn(func(c *event.Ctx) {
		cc := &clientConn{conn: &nullConn{}, connected: true, inflight: map[uint32]inflightOp{}}
		var got []Response
		for op := uint32(0); op < 3; op++ {
			cc.inflight[op] = inflightOp{cb: func(c *event.Ctx, r Response) { got = append(got, *keep(r)) }}
		}
		cc.fail(c)
		if len(got) != 3 {
			t.Fatalf("%d callbacks fired, want 3", len(got))
		}
		for _, r := range got {
			if r.Status == memcached.StatusKeyNotFound {
				t.Error("connection failure reported as a cache miss")
			}
			if !r.NetworkError() {
				t.Errorf("status %#x, want StatusNetworkError", r.Status)
			}
		}
		if !cc.closed {
			t.Error("failed connection not retired")
		}
		done = true
	})
	k.RunUntil(1 * sim.Second)
	if !done {
		t.Fatal("event did not run")
	}
}

// TestHealthMonitorToleratesAddBackend: a backend added after the
// monitor was created is simply unmonitored - it must not crash the
// heartbeat loop, and the cluster keeps serving.
func TestHealthMonitorToleratesAddBackend(t *testing.T) {
	cl := NewCluster(2, Options{Replicas: 2})
	front := cl.Sys.Frontend()
	cli := NewClient(cl, front)
	mon := NewHealthMonitor(cl, front)
	mon.Start()
	cl.Sys.K.RunUntil(20 * sim.Millisecond)

	cl.AddBackend(1)
	ok := 0
	front.Spawn(func(c *event.Ctx) {
		for i := 0; i < 32; i++ {
			cli.Set(c, []byte(fmt.Sprintf("post-add-%d", i)), []byte("v"), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					ok++
				}
			})
		}
	})
	cl.Sys.K.RunUntil(100 * sim.Millisecond) // several monitor ticks past the add
	if ok != 32 {
		t.Fatalf("only %d of 32 sets succeeded after AddBackend under monitoring", ok)
	}
}

// TestSubmitToEvictedBackendFailsFast: an operation whose replica set
// was computed before an eviction must fail over immediately when it
// reaches the evicted backend - not re-dial the dead node and wait out
// SYN backoff (fatal with timeouts disabled, the default).
func TestSubmitToEvictedBackendFailsFast(t *testing.T) {
	cl := NewCluster(2, Options{Replicas: 2})
	front := cl.Sys.Frontend()
	cli := NewClient(cl, front) // RequestTimeout deliberately 0
	cl.Sys.K.RunUntil(5 * sim.Millisecond)

	cl.Backends[0].Node.Kill()
	cl.EvictBackend(0)
	var got *Response
	start := cl.Sys.K.Now()
	front.Spawn(func(c *event.Ctx) {
		// Stale replica set, as a mid-operation eviction would leave it.
		cli.rep(c).submit(c, 0, memcached.Request{Opcode: memcached.OpGet, Key: []byte("stale-key")},
			func(c *event.Ctx, r Response) { got = keep(r) })
	})
	cl.Sys.K.RunUntil(start + 10*sim.Millisecond)
	if got == nil {
		t.Fatal("submit to evicted backend never completed (parked behind a dead dial)")
	}
	if !got.NetworkError() {
		t.Fatalf("status %#x, want StatusNetworkError", got.Status)
	}
}

// TestClusterRouteAgreesWithRing checks the convenience router.
func TestClusterRouteAgreesWithRing(t *testing.T) {
	cl := New(3, 1)
	for _, key := range sampleKeys(500) {
		want := cl.Backends[cl.Ring.Lookup(key)]
		if cl.Route(key) != want {
			t.Fatalf("Route disagrees with Ring for %q", key)
		}
	}
}

// TestClusterAddBackendWhileRunning adds a backend after traffic has
// been served and verifies new placements reach it.
func TestClusterAddBackendWhileRunning(t *testing.T) {
	cl := New(2, 1)
	front := cl.Sys.Frontend()
	cli := NewClient(cl, front)

	front.Spawn(func(c *event.Ctx) {
		for i := 0; i < 16; i++ {
			cli.Set(c, []byte(fmt.Sprintf("pre-%d", i)), []byte("x"), 0, nil)
		}
	})
	cl.Sys.K.RunUntil(2 * sim.Second)

	cl.AddBackend(1)
	if len(cl.Backends) != 3 {
		t.Fatalf("backend count %d", len(cl.Backends))
	}
	// Drive enough fresh keys that the ring sends some to the newcomer.
	ok := 0
	front.Spawn(func(c *event.Ctx) {
		for i := 0; i < 64; i++ {
			key := []byte(fmt.Sprintf("post-%d", i))
			cli.Set(c, key, []byte("y"), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					ok++
				}
			})
		}
	})
	cl.Sys.K.RunUntil(4 * sim.Second)
	if ok != 64 {
		t.Fatalf("only %d of 64 sets succeeded after expansion", ok)
	}
	if cl.Backends[2].Srv.Requests == 0 {
		t.Error("new backend never served a request")
	}
}
