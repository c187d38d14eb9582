package netstack

import (
	"bytes"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// futureResult is the result an ARP resolution's callbacks receive.
type futureResult = future.Result[EthAddr]

// testNet wires two single- or multi-core machines with stacks over a link.
type testNet struct {
	k          *sim.Kernel
	a, b       *Stack
	itfA, itfB *Interface
	link       *machine.Link
}

func newTestNet(t *testing.T, coresA, coresB int) *testNet {
	t.Helper()
	k := sim.NewKernel()
	ma := machine.New(k, machine.DefaultConfig("a", coresA))
	mb := machine.New(k, machine.DefaultConfig("b", coresB))
	na := machine.NewNIC(ma, machine.MAC{0, 0, 0, 0, 0, 1})
	nb := machine.NewNIC(mb, machine.MAC{0, 0, 0, 0, 0, 2})
	link := machine.NewLink(k, na, nb)
	var mgrsA, mgrsB []*event.Manager
	for _, c := range ma.Cores {
		mgrsA = append(mgrsA, event.NewManager(c, event.DefaultCosts()))
	}
	for _, c := range mb.Cores {
		mgrsB = append(mgrsB, event.NewManager(c, event.DefaultCosts()))
	}
	sa := NewStack(ma, mgrsA, Config{})
	sb := NewStack(mb, mgrsB, Config{})
	itfA := sa.AddInterface(na, IP(10, 0, 0, 1), IP(255, 255, 255, 0))
	itfB := sb.AddInterface(nb, IP(10, 0, 0, 2), IP(255, 255, 255, 0))
	return &testNet{k: k, a: sa, b: sb, itfA: itfA, itfB: itfB, link: link}
}

func (n *testNet) spawnA(fn event.Handler) { n.a.Mgrs[0].Spawn(fn) }
func (n *testNet) spawnB(fn event.Handler) { n.b.Mgrs[0].Spawn(fn) }

// sendSegment sends payload from itf to dst as one TCP segment outside
// any connection, down the path a connection's segments take: a head
// element from newPacket, then EthArpSend. The segment carries RST, which
// a host without that connection drops unanswered (RFC 793), so it draws
// no reply.
func sendSegment(c *event.Ctx, itf *Interface, dst Ipv4Addr, payload *iobuf.IOBuf) future.Future[future.Unit] {
	const sport, dport = 5000, 9
	hdr, tcp := itf.newPacket(ProtoTCP, dst, TcpHeaderLen, payload.ComputeChainDataLength())
	writeTcp(tcp, TcpHeader{SrcPort: sport, DstPort: dport, DataOff: TcpHeaderLen, Flags: tcpRST})
	hdr.AppendChain(payload)
	return itf.EthArpSend(c, EtherTypeIPv4, dst, hdr, FlowHash(itf.Addr, sport, dst, dport))
}

func TestArpResolution(t *testing.T) {
	n := newTestNet(t, 1, 1)
	var mac EthAddr
	resolved := false
	n.spawnA(func(c *event.Ctx) {
		n.itfA.arpFind(c, IP(10, 0, 0, 2)).OnDone(func(r futureResult) {
			m, err := r.Get()
			if err != nil {
				t.Errorf("arp: %v", err)
				return
			}
			mac = m
			resolved = true
		})
	})
	n.k.RunUntil(10 * sim.Millisecond)
	if !resolved {
		t.Fatal("arp did not resolve")
	}
	if mac != (EthAddr{0, 0, 0, 0, 0, 2}) {
		t.Fatalf("resolved %v", mac)
	}
	// Second resolution must be synchronous (cached).
	sync := false
	n.spawnA(func(c *event.Ctx) {
		f := n.itfA.arpFind(c, IP(10, 0, 0, 2))
		if _, ok := f.Poll(); ok {
			sync = true
		}
	})
	n.k.RunUntil(20 * sim.Millisecond)
	if !sync {
		t.Fatal("cached arp lookup was not synchronous")
	}
}

func TestArpTimeout(t *testing.T) {
	n := newTestNet(t, 1, 1)
	var gotErr error
	n.spawnA(func(c *event.Ctx) {
		n.itfA.arpFind(c, IP(10, 0, 0, 99)).OnDone(func(r futureResult) {
			_, gotErr = r.Get()
		})
	})
	n.k.RunUntil(2 * sim.Second)
	if gotErr == nil {
		t.Fatal("arp to absent host did not time out")
	}
}

// A send that misses the ARP cache goes out, once the reply has resolved
// the address, from an event of its own that re-enters the sending core
// through Spawn: the transmit is billed to that event and the frame leaves
// at its offset, not at an offset read from the event that made the send,
// which has long ended (its 20us are its own). A probe spawned when the
// send's future resolves runs right after that event, so it starts at the
// offset; a second send, with the MAC cached, measures the device path from
// an event's offset to the wire. A packet whose ARP goes unanswered is
// freed.
func TestArpMissSendBillsTheEventThatRunsIt(t *testing.T) {
	n := newTestNet(t, 1, 1)
	var sent []sim.Time
	n.link.DropFn = func(_ uint64, f machine.Frame) bool {
		if eth, err := parseEth(f.Buf.Data()); err == nil && eth.Src == n.itfA.NIC.Mac && eth.Type == EtherTypeIPv4 {
			sent = append(sent, n.k.Now())
		}
		return false
	}
	mgr := n.a.Mgrs[0]
	var probeAt, refAt sim.Time
	n.spawnA(func(c *event.Ctx) {
		f := sendSegment(c, n.itfA, ipB, iobuf.Wrap([]byte("after the miss")))
		c.Charge(20 * sim.Microsecond)
		f.OnDone(func(future.Result[future.Unit]) {
			mgr.Spawn(func(c *event.Ctx) { probeAt = c.Now() })
		})
	})
	n.k.Run()
	n.spawnA(func(c *event.Ctx) {
		c.Charge(20 * sim.Microsecond)
		_ = sendSegment(c, n.itfA, ipB, iobuf.Wrap([]byte("MAC cached")))
		refAt = c.Now() + c.Charged()
	})
	n.k.Run()
	if len(sent) != 2 || probeAt == 0 {
		t.Fatalf("%d segments sent, probe at %v", len(sent), probeAt)
	}
	if path, ref := sent[0]-probeAt, sent[1]-refAt; path != ref {
		t.Fatalf("the resolved send left %v after its event's offset, a cached one %v after", path, ref)
	}

	n.spawnA(func(c *event.Ctx) {
		_ = sendSegment(c, n.itfA, IP(10, 0, 0, 99), n.itfA.views.View([]byte("to no one")))
	})
	n.k.Run()
	if h, v := n.itfA.hdrPool.Outstanding(), n.itfA.views.Outstanding(); h != 0 || v != 0 {
		t.Fatalf("after an unanswered ARP %d head elements and %d view descriptors are out", h, v)
	}
}

// tcpEchoServer installs an echo listener on itf.
func tcpEchoServer(t *testing.T, itf *Interface, port uint16) {
	itf.St.Mgrs[0].Spawn(func(c *event.Ctx) {
		_, err := itf.ListenTcp(port, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
			return ConnHandler{
				OnReceive: func(c *event.Ctx, pcb *TcpPcb, payload *iobuf.IOBuf) {
					if err := pcb.Send(c, iobuf.FromBytes(payload.CopyOut())); err != nil {
						t.Errorf("echo send: %v", err)
					}
				},
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
}

func TestTcpConnectSendReceive(t *testing.T) {
	n := newTestNet(t, 1, 1)
	tcpEchoServer(t, n.itfB, 80)
	var got []byte
	connected := false
	n.spawnA(func(c *event.Ctx) {
		_, err := n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
				connected = true
				if err := pcb.Send(c, iobuf.FromBytes([]byte("hello ebbrt"))); err != nil {
					t.Errorf("send: %v", err)
				}
			},
			OnReceive: func(c *event.Ctx, pcb *TcpPcb, payload *iobuf.IOBuf) {
				got = append(got, payload.CopyOut()...)
			},
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.k.RunUntil(50 * sim.Millisecond)
	if !connected {
		t.Fatal("handshake did not complete")
	}
	if string(got) != "hello ebbrt" {
		t.Fatalf("echoed %q", got)
	}
}

func TestTcpLargeTransferSegmented(t *testing.T) {
	n := newTestNet(t, 1, 1)
	const size = 50000 // > 34 segments, > initial window requires window mgmt
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var rx []byte
	done := false
	n.spawnB(func(c *event.Ctx) {
		_, err := n.itfB.ListenTcp(80, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
			return ConnHandler{
				OnReceive: func(c *event.Ctx, pcb *TcpPcb, p *iobuf.IOBuf) {
					rx = append(rx, p.CopyOut()...)
					if len(rx) == size {
						done = true
					}
				},
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.spawnA(func(c *event.Ctx) {
		var sent int
		var pump func(c *event.Ctx, pcb *TcpPcb)
		pump = func(c *event.Ctx, pcb *TcpPcb) {
			for sent < size {
				chunk := size - sent
				if w := pcb.SendWindowRemaining(); chunk > w {
					chunk = w
				}
				if chunk == 0 {
					return // OnAcked will resume
				}
				if err := pcb.Send(c, iobuf.FromBytes(payload[sent:sent+chunk])); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sent += chunk
			}
		}
		_, err := n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
			OnConnected: pump,
			OnAcked:     func(c *event.Ctx, pcb *TcpPcb, nAck int) { pump(c, pcb) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.k.RunUntil(1 * sim.Second)
	if !done {
		t.Fatalf("received %d of %d bytes", len(rx), size)
	}
	if !bytes.Equal(rx, payload) {
		t.Fatal("payload corrupted in transfer")
	}
}

func TestTcpSendExceedingWindowFails(t *testing.T) {
	n := newTestNet(t, 1, 1)
	tcpEchoServer(t, n.itfB, 80)
	var sendErr error
	ran := false
	n.spawnA(func(c *event.Ctx) {
		_, _ = n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
				ran = true
				big := make([]byte, 200000) // far beyond a 64k window
				sendErr = pcb.Send(c, iobuf.FromBytes(big))
			},
		})
	})
	n.k.RunUntil(50 * sim.Millisecond)
	if !ran {
		t.Fatal("never connected")
	}
	if sendErr == nil {
		t.Fatal("oversized send should fail: the application owns buffering")
	}
}

func TestTcpOrderlyClose(t *testing.T) {
	n := newTestNet(t, 1, 1)
	serverClosed := false
	clientClosed := false
	n.spawnB(func(c *event.Ctx) {
		_, _ = n.itfB.ListenTcp(80, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
			return ConnHandler{
				OnReceive: func(c *event.Ctx, pcb *TcpPcb, p *iobuf.IOBuf) {
					// Server closes its side in response (CloseWait path).
					pcb.Close(c)
				},
				OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) {
					if err != nil {
						t.Errorf("server close err: %v", err)
					}
					serverClosed = true
				},
			}
		})
	})
	n.spawnA(func(c *event.Ctx) {
		_, _ = n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
				_ = pcb.Send(c, iobuf.FromBytes([]byte("bye")))
				pcb.Close(c)
			},
			OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) {
				if err != nil {
					t.Errorf("client close err: %v", err)
				}
				clientClosed = true
			},
		})
	})
	n.k.RunUntil(1 * sim.Second)
	if !serverClosed || !clientClosed {
		t.Fatalf("serverClosed=%v clientClosed=%v", serverClosed, clientClosed)
	}
}

func TestTcpConnectRefusedRST(t *testing.T) {
	n := newTestNet(t, 1, 1)
	var closedErr error
	gotClose := false
	n.spawnA(func(c *event.Ctx) {
		_, _ = n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 9999, ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
				t.Error("connected to a port with no listener")
			},
			OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) {
				gotClose = true
				closedErr = err
			},
		})
	})
	n.k.RunUntil(100 * sim.Millisecond)
	if !gotClose || closedErr == nil {
		t.Fatalf("expected reset: gotClose=%v err=%v", gotClose, closedErr)
	}
}

func TestTcpRetransmissionOnLoss(t *testing.T) {
	n := newTestNet(t, 1, 1)
	// Drop the 8th frame on the wire (a data segment mid-transfer).
	n.link.DropFn = func(idx uint64, f machine.Frame) bool { return idx == 8 }
	const size = 20000
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var rx []byte
	n.spawnB(func(c *event.Ctx) {
		_, _ = n.itfB.ListenTcp(80, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
			return ConnHandler{
				OnReceive: func(c *event.Ctx, pcb *TcpPcb, p *iobuf.IOBuf) {
					rx = append(rx, p.CopyOut()...)
				},
			}
		})
	})
	var clientPcb *TcpPcb
	n.spawnA(func(c *event.Ctx) {
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
				_ = pcb.Send(c, iobuf.FromBytes(payload[sent:sent+chunk]))
				sent += chunk
			}
		}
		clientPcb, _ = n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
			OnConnected: pump,
			OnAcked:     func(c *event.Ctx, pcb *TcpPcb, nAck int) { pump(c, pcb) },
		})
	})
	n.k.RunUntil(5 * sim.Second)
	if !bytes.Equal(rx, payload) {
		t.Fatalf("transfer with loss corrupted: got %d bytes want %d", len(rx), size)
	}
	if clientPcb.Retransmits == 0 {
		t.Fatal("no retransmission recorded despite drop")
	}
}

// arpBurst delivers that many ARP requests for B's address straight into
// B's NIC, 100 ns apart - faster than B serves them, so a receive
// interrupt finds a batch - and fails unless B answers every one.
func arpBurst(t *testing.T, n *testNet, frames int) {
	t.Helper()
	req := make([]byte, EthHeaderLen+ArpPacketLen)
	writeEth(req, EthHeader{Dst: machine.Broadcast, Src: macA, Type: EtherTypeARP})
	writeArp(req[EthHeaderLen:], ArpPacket{Op: arpOpRequest, SenderHW: macA, SenderIP: ipA, TargetIP: ipB})
	nic := n.itfB.NIC
	for i := 0; i < frames; i++ {
		f := machine.Frame{Buf: iobuf.FromBytes(req)}
		n.k.At(sim.Time(1000+i*100), func() { nic.Deliver(f) })
	}
	n.k.RunUntil(100 * sim.Millisecond)
	if got := nic.TxFrames.N; got != uint64(frames) {
		t.Fatalf("B answered %d of %d ARP requests", got, frames)
	}
}

func TestAdaptivePollingEngages(t *testing.T) {
	n := newTestNet(t, 1, 1)
	arpBurst(t, n, 200)
	if n.itfB.PollModeSwitches == 0 {
		t.Fatal("driver never engaged polling under burst load")
	}
	// After the burst the driver must return to interrupts (no idle
	// handlers left installed).
	if n.b.Mgrs[0].IdleHandlerCount() != 0 {
		t.Fatal("driver stuck in polling mode")
	}
}

// The burst that engages polling above leaves a NoPolling stack on
// interrupts.
func TestPollingDisabledAblation(t *testing.T) {
	n := newTestNet(t, 1, 1)
	n.b.Cfg.NoPolling = true
	arpBurst(t, n, 200)
	if n.itfB.PollModeSwitches != 0 || n.b.Mgrs[0].IdleHandlerCount() != 0 {
		t.Fatal("polling engaged despite ablation")
	}
}

// A burst that switches B's queue into polling, and the empty polls that
// switch it back, allocate nothing once warm: the driver installs the idle
// handler it made once, and the manager's idle list keeps its array
// (under iobufdebug, a Ctx per event).
func TestPollingRoundTripAllocatesNothing(t *testing.T) {
	n := newTestNet(t, 1, 1)
	// IPv6 frames, which B drops on arrival: all that happens is the
	// driver's.
	frame := make([]byte, 64)
	writeEth(frame, EthHeader{Dst: n.itfB.NIC.Mac, Src: macA, Type: 0x86dd})
	views := iobuf.NewPool(0)
	step := func() {
		for range 2 * pollBatchThreshold {
			n.itfB.NIC.Deliver(machine.Frame{Buf: views.View(frame)})
		}
		n.k.Run()
	}
	step()
	switches, events := n.itfB.PollModeSwitches, n.a.Mgrs[0].Dispatched+n.b.Mgrs[0].Dispatched
	step()
	events = n.a.Mgrs[0].Dispatched + n.b.Mgrs[0].Dispatched - events
	if n.itfB.PollModeSwitches != switches+1 || n.b.Mgrs[0].IdleHandlerCount() != 0 {
		t.Fatalf("one burst made %d switches into polling and left %d idle handlers; want 1 and 0",
			n.itfB.PollModeSwitches-switches, n.b.Mgrs[0].IdleHandlerCount())
	}
	want := 0.0
	if event.CheckedCtx {
		want = float64(events)
	}
	if got := testing.AllocsPerRun(100, step); got != want {
		t.Fatalf("a round trip into polling and back allocated %.0f objects over %d events, want %.0f", got, events, want)
	}
}

// A burst of ARP requests allocates nothing once warm: B writes each
// reply into a head element from its interface's pool, which comes back
// once A has taken the reply in.
func TestArpRepliesAllocateNothing(t *testing.T) {
	n := newTestNet(t, 1, 1)
	req := make([]byte, EthHeaderLen+ArpPacketLen)
	writeEth(req, EthHeader{Dst: machine.Broadcast, Src: macA, Type: EtherTypeARP})
	writeArp(req[EthHeaderLen:], ArpPacket{Op: arpOpRequest, SenderHW: macA, SenderIP: ipA, TargetIP: ipB})
	views := iobuf.NewPool(0)
	const burst = 16
	step := func() {
		for range burst {
			n.itfB.NIC.Deliver(machine.Frame{Buf: views.View(req)})
		}
		n.k.Run()
	}
	step()
	replies, events := n.itfB.NIC.TxFrames.N, n.a.Mgrs[0].Dispatched+n.b.Mgrs[0].Dispatched
	step()
	events = n.a.Mgrs[0].Dispatched + n.b.Mgrs[0].Dispatched - events
	if got := n.itfB.NIC.TxFrames.N - replies; got != burst {
		t.Fatalf("B answered %d of %d ARP requests", got, burst)
	}
	want := 0.0
	if event.CheckedCtx {
		want = float64(events)
	}
	if got := testing.AllocsPerRun(100, step); got != want {
		t.Fatalf("a burst of %d ARP requests allocated %.0f objects over %d events, want %.0f", burst, got, events, want)
	}
}

func TestChecksum(t *testing.T) {
	// RFC 1071 example.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x", got)
	}
}

func TestFlowHashSymmetric(t *testing.T) {
	h1 := FlowHash(IP(10, 0, 0, 1), 1234, IP(10, 0, 0, 2), 80)
	h2 := FlowHash(IP(10, 0, 0, 2), 80, IP(10, 0, 0, 1), 1234)
	if h1 != h2 {
		t.Fatal("flow hash not symmetric")
	}
	h3 := FlowHash(IP(10, 0, 0, 1), 1235, IP(10, 0, 0, 2), 80)
	if h1 == h3 {
		t.Fatal("distinct flows collide trivially")
	}
}

func TestSameSubnet(t *testing.T) {
	mask := IP(255, 255, 255, 0)
	if !SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 0, 200), mask) {
		t.Fatal("same subnet not detected")
	}
	if SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 1, 1), mask) {
		t.Fatal("different subnet not detected")
	}
}
