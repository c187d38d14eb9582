package netstack

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// tcpPair is one established connection from A (client) to B (server).
type tcpPair struct {
	net    *testNet
	client *TcpPcb
	server *TcpPcb
	rx     *[]byte
}

func establishTcp(t *testing.T, n *testNet, clientH, serverH ConnHandler, serverRx *[]byte) *tcpPair {
	t.Helper()
	p := &tcpPair{net: n, rx: serverRx}
	n.spawnB(func(c *event.Ctx) {
		_, err := n.itfB.ListenTcp(80, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
			p.server = pcb
			h := serverH
			if serverRx != nil {
				inner := h.OnReceive
				h.OnReceive = func(c *event.Ctx, pcb *TcpPcb, buf *iobuf.IOBuf) {
					*serverRx = append(*serverRx, buf.CopyOut()...)
					if inner != nil {
						inner(c, pcb, buf)
					}
				}
			}
			return h
		})
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	n.spawnA(func(c *event.Ctx) {
		pcb, err := n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, clientH)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		p.client = pcb
	})
	return p
}

// TestTcpRetransmissionTimeout is the table-driven loss/timeout matrix:
// from a single dropped data segment (recovered by one RTO firing)
// through a lost SYN to total blackhole (escalating backoff until the
// stack gives up and reports the failure).
func TestTcpRetransmissionTimeout(t *testing.T) {
	const size = 8000
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	cases := []struct {
		name string
		// drop decides frame loss by on-wire index (0-based; the
		// handshake occupies the first frames).
		drop func(idx uint64) bool
		run  sim.Time
		// wantDelivered: the full payload arrives despite the loss.
		wantDelivered bool
		// wantClientErr: the client connection must die with an error.
		wantClientErr bool
		minRetransmit uint64
	}{
		{
			name:          "no loss no retransmit",
			drop:          func(idx uint64) bool { return false },
			run:           2 * sim.Second,
			wantDelivered: true,
			minRetransmit: 0,
		},
		{
			name:          "single data segment lost",
			drop:          func(idx uint64) bool { return idx == 7 },
			run:           5 * sim.Second,
			wantDelivered: true,
			minRetransmit: 1,
		},
		{
			name:          "burst of three lost",
			drop:          func(idx uint64) bool { return idx >= 7 && idx <= 9 },
			run:           10 * sim.Second,
			wantDelivered: true,
			minRetransmit: 1,
		},
		{
			name: "client SYN lost once",
			drop: func(idx uint64) bool { return idx == 0 },
			run:  5 * sim.Second,
			// The SYN retransmits after one RTO; the transfer completes.
			wantDelivered: true,
			minRetransmit: 1,
		},
		{
			name: "blackhole after handshake",
			drop: func(idx uint64) bool { return idx >= 5 },
			run:  400 * sim.Second, // outlast the full backoff ladder
			// Nothing arrives and the client must give up with an error
			// after exhausting its exponential backoff.
			wantDelivered: false,
			wantClientErr: true,
			minRetransmit: 8,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, 1, 1)
			n.link.DropFn = func(idx uint64, f machine.Frame) bool { return tc.drop(idx) }
			var rx []byte
			var clientErr error
			clientClosed := false
			var sent int
			var pump func(c *event.Ctx, pcb *TcpPcb)
			pump = func(c *event.Ctx, pcb *TcpPcb) {
				for sent < size {
					chunk := size - sent
					if w := pcb.SendWindowRemaining(); chunk > w {
						chunk = w
					}
					if chunk == 0 {
						return
					}
					if err := pcb.Send(c, iobuf.FromBytes(payload[sent:sent+chunk])); err != nil {
						return
					}
					sent += chunk
				}
			}
			p := establishTcp(t, n, ConnHandler{
				OnConnected: pump,
				OnAcked:     func(c *event.Ctx, pcb *TcpPcb, nAck int) { pump(c, pcb) },
				OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) {
					clientClosed = true
					clientErr = err
				},
			}, ConnHandler{}, &rx)
			n.k.RunUntil(tc.run)

			if tc.wantDelivered && !bytes.Equal(rx, payload) {
				t.Fatalf("delivered %d bytes, want %d intact", len(rx), size)
			}
			if !tc.wantDelivered && len(rx) != 0 {
				t.Fatalf("unexpected delivery of %d bytes", len(rx))
			}
			if tc.wantClientErr && (!clientClosed || clientErr == nil) {
				t.Fatalf("client should have failed: closed=%v err=%v", clientClosed, clientErr)
			}
			if !tc.wantClientErr && clientErr != nil {
				t.Fatalf("unexpected client error: %v", clientErr)
			}
			if p.client.Retransmits < tc.minRetransmit {
				t.Fatalf("retransmits %d, want >= %d", p.client.Retransmits, tc.minRetransmit)
			}
		})
	}
}

// TestTcpOutOfOrderReassembly injects crafted segments directly into an
// established server pcb in every arrival order (and with duplicates and
// stale overlaps) and requires in-order delivery of the byte stream.
func TestTcpOutOfOrderReassembly(t *testing.T) {
	segs := [][]byte{
		[]byte("AAAAAAAA"),
		[]byte("BBBBB"),
		[]byte("CCCCCCCCCCC"),
	}
	var whole []byte
	for _, s := range segs {
		whole = append(whole, s...)
	}

	cases := []struct {
		name  string
		order []int // injection order; -1 re-injects the previous segment
	}{
		{"in order", []int{0, 1, 2}},
		{"fully reversed", []int{2, 1, 0}},
		{"middle first", []int{1, 0, 2}},
		{"last in the middle", []int{0, 2, 1}},
		{"hole then fill", []int{2, 0, 1}},
		{"rotated", []int{1, 2, 0}},
		{"duplicate ooo segment", []int{2, 2, 0, 1}},
		{"duplicate after delivery", []int{0, 0, 1, 2}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, 1, 1)
			var rx []byte
			p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, &rx)
			n.k.RunUntil(100 * sim.Millisecond)
			if p.server == nil || p.server.State() != "Established" {
				t.Fatal("connection not established")
			}

			// Segment offsets relative to the server's current rcvNxt.
			offs := make([]uint32, len(segs))
			var off uint32
			for i, s := range segs {
				offs[i] = off
				off += uint32(len(s))
			}
			base := p.server.rcvNxt
			n.b.Mgrs[p.server.core].Spawn(func(c *event.Ctx) {
				for _, idx := range tc.order {
					seg := segs[idx]
					hdr := TcpHeader{
						SrcPort: p.server.key.rport,
						DstPort: p.server.key.lport,
						Seq:     base + offs[idx],
						Ack:     p.server.sndNxt,
						DataOff: TcpHeaderLen,
						Flags:   tcpACK | tcpPSH,
						Window:  65535,
					}
					p.server.input(c, hdr, iobuf.FromBytes(seg))
				}
			})
			n.k.RunUntil(200 * sim.Millisecond)

			if !bytes.Equal(rx, whole) {
				t.Fatalf("got %q want %q", rx, whole)
			}
			if p.server.rcvNxt != base+uint32(len(whole)) {
				t.Fatalf("rcvNxt advanced to %d, want %d", p.server.rcvNxt-base, len(whole))
			}
			if len(p.server.ooo) != 0 {
				t.Fatalf("%d segments stranded in reassembly", len(p.server.ooo))
			}
		})
	}
}

// TestTcpCloseScenarios is the table-driven teardown matrix, including
// the simultaneous close where both FINs cross on the wire
// (FinWait1 -> Closing -> TimeWait on both ends).
func TestTcpCloseScenarios(t *testing.T) {
	cases := []struct {
		name string
		// closeA/closeB: when (after establishment) each side calls
		// Close; negative means that side only closes in response to the
		// peer's FIN (via OnRemoteClosed).
		closeA, closeB sim.Time
	}{
		{"client closes first", 0, -1},
		{"server closes first", -1, 0},
		{"simultaneous close", 0, 0},
		{"near-simultaneous close", 0, 100 * sim.Nanosecond},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, 1, 1)
			var errA, errB error
			closedA, closedB := false, false
			passive := func(closed *bool, errp *error) ConnHandler {
				return ConnHandler{
					OnRemoteClosed: func(c *event.Ctx, pcb *TcpPcb) { pcb.Close(c) },
					OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) {
						*closed = true
						*errp = err
					},
				}
			}
			p := establishTcp(t, n, passive(&closedA, &errA), passive(&closedB, &errB), nil)
			n.k.RunUntil(100 * sim.Millisecond)
			if p.client == nil || p.server == nil {
				t.Fatal("not established")
			}
			if tc.closeA >= 0 {
				n.a.Mgrs[p.client.core].After(tc.closeA, func(c *event.Ctx) { p.client.Close(c) })
			}
			if tc.closeB >= 0 {
				n.b.Mgrs[p.server.core].After(tc.closeB, func(c *event.Ctx) { p.server.Close(c) })
			}
			n.k.RunUntil(2 * sim.Second)

			if !closedA || !closedB {
				t.Fatalf("teardown incomplete: client=%v server=%v (states %s/%s)",
					closedA, closedB, p.client.State(), p.server.State())
			}
			if errA != nil || errB != nil {
				t.Fatalf("orderly close reported errors: client=%v server=%v", errA, errB)
			}
			for side, pcb := range map[string]*TcpPcb{"client": p.client, "server": p.server} {
				if pcb.State() != "Closed" {
					t.Fatalf("%s finished in %s, want Closed", side, pcb.State())
				}
			}
			// The connection table must be clean on both ends.
			if _, ok := n.a.Itfs[0].tcp.conns.Get(p.client.key); ok {
				t.Fatal("client pcb still in connection table")
			}
			if _, ok := n.b.Itfs[0].tcp.conns.Get(p.server.key); ok {
				t.Fatal("server pcb still in connection table")
			}
		})
	}
}

// TestTcpSimultaneousCloseTraversesClosing pins down the state path of
// the crossed-FIN case: both ends must pass through Closing (not
// CloseWait, which would mean one side saw the FIN before closing).
func TestTcpSimultaneousCloseTraversesClosing(t *testing.T) {
	n := newTestNet(t, 1, 1)
	sawClosing := map[string]bool{}
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunUntil(100 * sim.Millisecond)

	// Close both ends at the same instant; FINs cross in flight.
	n.a.Mgrs[p.client.core].After(0, func(c *event.Ctx) { p.client.Close(c) })
	n.b.Mgrs[p.server.core].After(0, func(c *event.Ctx) { p.server.Close(c) })
	// Sample states shortly after the FINs have crossed but before the
	// TimeWait expiry (propagation is sub-microsecond, TimeWait 1ms).
	n.a.Mgrs[p.client.core].After(100*sim.Microsecond, func(c *event.Ctx) {
		sawClosing["client"] = p.client.State() == "Closing" || p.client.State() == "TimeWait"
		sawClosing["server"] = p.server.State() == "Closing" || p.server.State() == "TimeWait"
	})
	n.k.RunUntil(1 * sim.Second)

	for side, ok := range sawClosing {
		if !ok {
			t.Errorf("%s did not traverse Closing/TimeWait", side)
		}
	}
	if p.client.State() != "Closed" || p.server.State() != "Closed" {
		t.Fatalf("final states %s/%s", p.client.State(), p.server.State())
	}
}

// TestTcpRetransmitBackoffResets checks that a successful ACK resets the
// exponential backoff so a later loss starts from the base RTO again.
func TestTcpRetransmitBackoffResets(t *testing.T) {
	n := newTestNet(t, 1, 1)
	// Drop two widely separated data frames; each must be recovered by a
	// single base-RTO retransmission (no residual backoff).
	n.link.DropFn = func(idx uint64, f machine.Frame) bool { return idx == 7 || idx == 15 }
	var rx []byte
	payload := []byte("0123456789abcdef0123456789abcdef")
	var p *tcpPair
	step := 0
	sendNext := func(c *event.Ctx, pcb *TcpPcb) {
		if step < 8 {
			_ = pcb.Send(c, iobuf.FromBytes(payload))
			step++
		}
	}
	p = establishTcp(t, n, ConnHandler{
		OnConnected: sendNext,
		OnAcked:     func(c *event.Ctx, pcb *TcpPcb, nAck int) { sendNext(c, pcb) },
	}, ConnHandler{}, &rx)
	n.k.RunUntil(10 * sim.Second)

	want := bytes.Repeat(payload, 8)
	if !bytes.Equal(rx, want) {
		t.Fatalf("delivered %d bytes, want %d", len(rx), len(want))
	}
	if p.client.Retransmits < 2 {
		t.Fatalf("retransmits %d, want >= 2", p.client.Retransmits)
	}
	if p.client.rtoBackoff != 0 {
		t.Fatalf("backoff %d after recovery, want 0", p.client.rtoBackoff)
	}
}

// futureAllocs counts the objects allocated so far, per the heap profile, by
// code in package future itself (the innermost frame of the allocating stack).
func futureAllocs() (n int64) {
	runtime.GC() // the profile publishes allocations two collections late
	runtime.GC()
	records := make([]runtime.MemProfileRecord, 4096)
	got, ok := runtime.MemProfile(records, true)
	for !ok {
		records = make([]runtime.MemProfileRecord, 2*got)
		got, ok = runtime.MemProfile(records, true)
	}
	for _, r := range records[:got] {
		site, _ := runtime.CallersFrames(r.Stack()).Next()
		if strings.HasPrefix(site.Function, "ebbrt/internal/future.") {
			n += r.AllocObjects
		}
	}
	return n
}

// Figure 2's fast path: with the next hop's MAC in the ARP cache, a segment
// goes from TcpPcb.Send to the NIC synchronously through EthArpSend's
// ThenOK, and the futures on the way are values, not heap state. The ARP
// miss during the handshake shows the counter does see the slow path.
func TestTcpSendWithCachedArpAllocatesNoFutureState(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // record every allocation

	n := newTestNet(t, 1, 1)
	before := futureAllocs()
	var rx []byte
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, &rx)
	n.k.RunFor(10 * sim.Millisecond)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	handshake := futureAllocs()
	if handshake == before {
		t.Fatal("the handshake's ARP miss allocated no future state: the counter is blind")
	}

	const sends = 64
	n.spawnA(func(c *event.Ctx) {
		for i := 0; i < sends; i++ {
			if err := p.client.Send(c, iobuf.FromBytes([]byte("figure 2"))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	n.k.RunFor(10 * sim.Millisecond)
	if len(rx) != sends*len("figure 2") {
		t.Fatalf("server received %d bytes", len(rx))
	}
	if extra := futureAllocs() - handshake; extra != 0 {
		t.Fatalf("%d segments and their ACKs over a cached ARP entry allocated %d objects in package future", sends, extra)
	}
}
