package appnet_test

import (
	"bytes"
	"slices"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/gpos"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// echoPair builds a testbed with an echo server of the given kind.
func echoPair(t *testing.T, kind testbed.ServerKind) *testbed.Pair {
	t.Helper()
	pair := testbed.NewPair(kind, 1, 2)
	err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				conn.Send(c, iobuf.FromBytes(payload.CopyOut()))
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func roundTrip(t *testing.T, pair *testbed.Pair, msg []byte) []byte {
	t.Helper()
	var got []byte
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, 7, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				got = append(got, payload.CopyOut()...)
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.FromBytes(msg))
		})
	})
	pair.K.RunUntil(3 * sim.Second)
	return got
}

func TestEchoAcrossAllRuntimes(t *testing.T) {
	msg := []byte("runtime-independence")
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM, testbed.LinuxNative, testbed.OSv} {
		pair := echoPair(t, kind)
		if got := roundTrip(t, pair, msg); !bytes.Equal(got, msg) {
			t.Fatalf("%v echoed %q", kind, got)
		}
	}
}

func TestLargeSendBuffersBeyondWindow(t *testing.T) {
	// 300 kB far exceeds the 64k TCP window: Conn.Send must buffer and
	// drain transparently on both runtimes.
	msg := make([]byte, 300_000)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM} {
		pair := echoPair(t, kind)
		got := roundTrip(t, pair, msg)
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: echoed %d bytes of %d", kind, len(got), len(msg))
		}
	}
}

func TestCloseAfterBufferedSendDelivers(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	var received []byte
	serverClosed := false
	err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				received = append(received, payload.CopyOut()...)
			},
			OnClose: func(c *event.Ctx, conn appnet.Conn, err error) { serverClosed = true },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The buffered chain is held as it is, not flattened: three elements,
	// two of them longer than the window, cut wherever the window falls.
	msg := make([]byte, 200_000)
	for i := range msg {
		msg[i] = byte(i * 11)
	}
	chain := iobuf.Wrap(msg[:70_000])
	chain.AppendChain(iobuf.Wrap(msg[70_000:70_001]))
	chain.AppendChain(iobuf.Wrap(msg[70_001:]))
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, 7, appnet.Callbacks{},
			func(c *event.Ctx, conn appnet.Conn) {
				conn.Send(c, chain)
				conn.Close(c) // must defer FIN until the buffer drains
			})
	})
	pair.K.RunUntil(5 * sim.Second)
	if !bytes.Equal(received, msg) {
		t.Fatalf("received %d of %d after close-behind-send", len(received), len(msg))
	}
	if !serverClosed {
		t.Fatal("server never saw the close")
	}
}

func TestDialRefusedReportsClose(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	gotClose := false
	var gotErr error
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, 9999, appnet.Callbacks{
			OnClose: func(c *event.Ctx, conn appnet.Conn, err error) {
				gotClose = true
				gotErr = err
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			t.Error("connected to closed port")
		})
	})
	pair.K.RunUntil(2 * sim.Second)
	if !gotClose || gotErr == nil {
		t.Fatalf("refused dial: close=%v err=%v", gotClose, gotErr)
	}
}

// TestRuntimeKinds: each kind of server runs the runtime it names, the
// native one for EbbRT and the general-purpose one, under its own
// profile, for Linux and OSv; the client is always native.
func TestRuntimeKinds(t *testing.T) {
	for _, tc := range []struct {
		kind testbed.ServerKind
		cfg  gpos.Config // the server's profile, zero for the native runtime
	}{
		{testbed.EbbRT, gpos.Config{}},
		{testbed.LinuxVM, gpos.LinuxConfig()},
		{testbed.OSv, gpos.OSvConfig()},
	} {
		pair := testbed.NewPair(tc.kind, 1, 1)
		if _, ok := pair.Client.(*appnet.Native); !ok {
			t.Fatalf("kind %v: client runtime is %T, want the native one", tc.kind, pair.Client)
		}
		var cfg gpos.Config
		switch rt := pair.Server.(type) {
		case *appnet.Native:
		case *gpos.Runtime:
			cfg = rt.Cfg
		default:
			t.Fatalf("kind %v: server runtime is %T", tc.kind, pair.Server)
		}
		if cfg != tc.cfg {
			t.Fatalf("kind %v: server runtime %T under %+v, want %+v", tc.kind, pair.Server, cfg, tc.cfg)
		}
	}
}

func TestGPOSDeliveryIsDeferredAndBatched(t *testing.T) {
	// On the GPOS runtime the app handler must NOT run in the softirq
	// event that received the packet: there is a wakeup delay.
	pair := testbed.NewPair(testbed.LinuxVM, 1, 2)
	var deliveredAt sim.Time
	err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				deliveredAt = c.Now()
				conn.Send(c, iobuf.FromBytes(payload.CopyOut()))
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ebbPair := echoPair(t, testbed.EbbRT)
	msg := []byte("latency-probe")
	gposStart := pair.K.Now()
	_ = roundTrip(t, pair, msg)
	gposRTT := deliveredAt - gposStart
	ebbStart := ebbPair.K.Now()
	var ebbDone sim.Time
	ebbPair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		ebbPair.Client.Dial(c, testbed.ServerIP, 7, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				ebbDone = c.Now()
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			conn.Send(c, iobuf.FromBytes(msg))
		})
	})
	ebbPair.K.RunUntil(1 * sim.Second)
	ebbRTT := ebbDone - ebbStart
	if gposRTT <= ebbRTT/2 {
		t.Fatalf("GPOS one-way %v implausibly fast vs EbbRT RTT %v", gposRTT, ebbRTT)
	}
}

// A response written into payload elements is cut inside them twice over:
// by the send buffer at the window's edge and by the stack at every MSS.
// The link loses the second data segment once, so the first is
// acknowledged - and its pieces freed - before the second is
// retransmitted from the same elements: the bytes arrive exact (under
// iobufdebug an element recycled early reads 0xDB), and every element and
// view comes home once the peer has them all.
func TestPooledResponseCutAndRetransmitted(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 1)
	resp := make([]byte, 70_000) // past the 65,535-byte window
	for i := range resp {
		resp[i] = byte(i*7 + i>>8)
	}
	const fill = 1000 // neither a multiple nor a divisor of the MSS
	var payload, views *iobuf.Pool
	if err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		payload, views = appnet.PoolsOf(conn)
		return appnet.Callbacks{OnData: func(c *event.Ctx, conn appnet.Conn, _ *iobuf.IOBuf) {
			var chain *iobuf.IOBuf
			for rest := resp; len(rest) > 0; {
				e := payload.Get(fill)
				rest = rest[copy(e.Append(min(fill, len(rest))), rest):]
				if chain == nil {
					chain = e
				} else {
					chain.AppendChain(e)
				}
			}
			conn.Send(c, chain)
		}}
	}); err != nil {
		t.Fatal(err)
	}
	dataSegments, dropped := 0, false
	pair.Link.DropFn = func(_ uint64, f machine.Frame) bool {
		// Data from the server (its MAC ends in 2), more than the 54 bytes
		// of headers: the response.
		if f.Buf.ComputeChainDataLength() <= 54 || f.Buf.Data()[11] != 2 {
			return false
		}
		if dataSegments++; dataSegments == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var got []byte
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, 7, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, p *iobuf.IOBuf) { got = p.AppendTo(got) },
		}, func(c *event.Ctx, conn appnet.Conn) { conn.Send(c, iobuf.FromBytes([]byte("go"))) })
	})
	pair.K.RunUntil(2 * sim.Second)
	if !dropped || !bytes.Equal(got, resp) {
		t.Fatalf("dropped %v; received %d of %d bytes, exact %v", dropped, len(got), len(resp), bytes.Equal(got, resp))
	}
	if payload.Outstanding() != 0 || views.Outstanding() != 0 {
		t.Fatalf("%d payload elements and %d views out after the response was acknowledged", payload.Outstanding(), views.Outstanding())
	}
}

// A send buffer that holds chains behind a closed window and drains them
// as the peer acknowledges allocates nothing per cycle once warm: its
// queue reuses one array, and the chains are pooled elements (under
// iobufdebug, a Ctx per event).
func TestBufferedSendAllocatesNothing(t *testing.T) {
	pair := testbed.NewPair(testbed.EbbRT, 1, 1)
	const chains, size = 3, 30_000 // 90,000 bytes: past the 65,535-byte window
	var server appnet.Conn
	if err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		server = conn
		return appnet.Callbacks{}
	}); err != nil {
		t.Fatal(err)
	}
	received := 0
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, 7, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, p *iobuf.IOBuf) { received += p.ComputeChainDataLength() },
		}, func(*event.Ctx, appnet.Conn) {})
	})
	pair.K.RunFor(10 * sim.Millisecond)
	if server == nil {
		t.Fatal("connection not accepted")
	}
	payload, _ := appnet.PoolsOf(server)
	const fill = 1000 // what one payload element holds
	send := func(c *event.Ctx) {
		for range chains {
			chain := payload.Get(fill)
			chain.Append(fill)
			for range size/fill - 1 {
				e := payload.Get(fill)
				e.Append(fill)
				chain.AppendChain(e)
			}
			server.Send(c, chain)
		}
	}
	mgrs := slices.Concat(pair.Server.Mgrs(), pair.Client.Mgrs())
	dispatched := func() (n uint64) {
		for _, m := range mgrs {
			n += m.Dispatched
		}
		return n
	}
	step := func() {
		received = 0
		pair.Server.Mgrs()[0].Spawn(send)
		pair.K.RunFor(10 * sim.Millisecond)
	}
	for range 500 { // warm: five seconds of virtual time, until the kernel's timer wheel slots stop growing at this load
		step()
	}
	events := dispatched()
	step()
	events = dispatched() - events
	if received != chains*size {
		t.Fatalf("one cycle delivered %d of %d bytes", received, chains*size)
	}
	want := 0.0
	if event.CheckedCtx {
		want = float64(events)
	}
	if got := testing.AllocsPerRun(100, step); got != want {
		t.Fatalf("a buffered send cycle allocated %.0f objects over %d events, want %.0f", got, events, want)
	}
}
