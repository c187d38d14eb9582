package netstack

import (
	"bytes"
	"slices"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// newTestNetCfg is newTestNet with an explicit stack configuration on
// both machines (for fixed-RTO baselines and ablation tests).
func newTestNetCfg(t *testing.T, coresA, coresB int, cfg Config) *testNet {
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
	sa := NewStack(ma, mgrsA, cfg)
	sb := NewStack(mb, mgrsB, cfg)
	itfA := sa.AddInterface(na, IP(10, 0, 0, 1), IP(255, 255, 255, 0))
	itfB := sb.AddInterface(nb, IP(10, 0, 0, 2), IP(255, 255, 255, 0))
	return &testNet{k: k, a: sa, b: sb, itfA: itfA, itfB: itfB, link: link}
}

// tapFrame is one decoded TCP frame observed on the wire.
type tapFrame struct {
	srcIP      Ipv4Addr
	hdr        TcpHeader
	payloadLen int
}

// decodeTcpFrame parses a link frame down to its TCP header; ok is
// false for non-IPv4/non-TCP traffic (ARP, etc).
func decodeTcpFrame(f machine.Frame) (tapFrame, bool) {
	b := f.Buf.CopyOut()
	eth, err := parseEth(b)
	if err != nil || eth.Type != EtherTypeIPv4 {
		return tapFrame{}, false
	}
	ip, err := parseIpv4(b[EthHeaderLen:])
	if err != nil || ip.Proto != ProtoTCP {
		return tapFrame{}, false
	}
	th, err := parseTcp(b[EthHeaderLen+Ipv4HeaderLen:])
	if err != nil {
		return tapFrame{}, false
	}
	return tapFrame{
		srcIP:      ip.Src,
		hdr:        th,
		payloadLen: int(ip.TotalLen) - Ipv4HeaderLen - th.DataOff,
	}, true
}

// TestTcpAdaptiveRTORecovery pins the tentpole behavior: with the
// adaptive estimator a microsecond-RTT link recovers a lost segment in
// about the measured RTT's RTO (~RTOMin), while the fixed-RTO baseline
// on the same topology stalls for the full configured 200ms.
func TestTcpAdaptiveRTORecovery(t *testing.T) {
	run := func(t *testing.T, cfg Config) (deliveredAt sim.Time, p *tcpPair) {
		n := newTestNetCfg(t, 1, 1, cfg)
		// Drop the first data-bearing frame from the client, once.
		dropped := false
		n.link.DropFn = func(idx uint64, f machine.Frame) bool {
			tf, ok := decodeTcpFrame(f)
			if !ok || dropped || tf.srcIP != IP(10, 0, 0, 1) || tf.payloadLen == 0 {
				return false
			}
			dropped = true
			return true
		}
		payload := []byte("adaptive-rto-payload")
		deliveredAt = -1
		p = establishTcp(t, n, ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
				_ = pcb.Send(c, iobuf.FromBytes(payload))
			},
		}, ConnHandler{
			OnReceive: func(c *event.Ctx, pcb *TcpPcb, buf *iobuf.IOBuf) {
				deliveredAt = c.Now()
			},
		}, nil)
		n.k.RunUntil(2 * sim.Second)
		if !dropped {
			t.Fatal("loss injection vacuous")
		}
		if deliveredAt < 0 {
			t.Fatal("payload never delivered")
		}
		if p.client.Retransmits < 1 {
			t.Fatalf("retransmits %d, want >= 1", p.client.Retransmits)
		}
		return deliveredAt, p
	}

	adaptive := Config{}
	fixed := Config{FixedRTO: true, NoFastRetransmit: true}

	t.Run("adaptive recovers near RTOMin", func(t *testing.T) {
		at, p := run(t, adaptive)
		if at > 20*sim.Millisecond {
			t.Fatalf("adaptive recovery took %.2fms, want well under the 200ms fixed RTO", float64(at)/1e6)
		}
		if p.client.SRTT() == 0 {
			t.Fatal("no RTT sample taken")
		}
		if rto := p.client.CurrentRTO(); rto < rtoMin || rto > 10*sim.Millisecond {
			t.Fatalf("adaptive RTO %.3fms outside expected [1ms, 10ms]", float64(rto)/1e6)
		}
	})
	t.Run("fixed baseline stalls a full RTO", func(t *testing.T) {
		at, _ := run(t, fixed)
		if at < initialRTO {
			t.Fatalf("fixed-RTO recovery at %.2fms, expected to wait out the %.0fms RTO",
				float64(at)/1e6, float64(initialRTO)/1e6)
		}
	})
}

// TestTcpFastRetransmit drives a multi-segment window with one interior
// drop: the three duplicate ACKs from the segments above the hole must
// repair it in about one RTT, long before the (deliberately huge) RTO.
func TestTcpFastRetransmit(t *testing.T) {
	cfg := Config{FixedRTO: true, rto: 5 * sim.Second} // a timeout recovery would blow the deadline below
	n := newTestNetCfg(t, 1, 1, cfg)

	// Drop the second data-bearing frame from the client, once.
	dataSeen, dropped := 0, false
	n.link.DropFn = func(idx uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		if !ok || tf.srcIP != IP(10, 0, 0, 1) || tf.payloadLen == 0 {
			return false
		}
		dataSeen++
		if dataSeen == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}

	const segs = 6
	chunk := bytes.Repeat([]byte("x"), 512)
	var rx []byte
	p := establishTcp(t, n, ConnHandler{
		OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
			// Space the segments out so each arrival above the hole
			// produces its own duplicate ACK (no coalescing).
			for i := 0; i < segs; i++ {
				i := i
				c.Manager().After(sim.Time(i)*20*sim.Microsecond, func(c *event.Ctx) {
					seg := append([]byte(nil), chunk...)
					seg[0] = byte('a' + i)
					_ = pcb.Send(c, iobuf.FromBytes(seg))
				})
			}
		},
	}, ConnHandler{}, &rx)
	n.k.RunUntil(1 * sim.Second)

	if !dropped {
		t.Fatal("loss injection vacuous")
	}
	if len(rx) != segs*len(chunk) {
		t.Fatalf("delivered %d bytes, want %d", len(rx), segs*len(chunk))
	}
	for i := 0; i < segs; i++ {
		if rx[i*len(chunk)] != byte('a'+i) {
			t.Fatalf("segment %d out of order in delivered stream", i)
		}
	}
	if p.client.FastRetransmits != 1 {
		t.Fatalf("fast retransmits %d, want 1", p.client.FastRetransmits)
	}
	if p.client.Retransmits != 1 {
		t.Fatalf("retransmits %d, want exactly the one fast retransmit", p.client.Retransmits)
	}
	if n.itfA.TcpStats().FastRetransmits != 1 {
		t.Fatalf("interface stats missed the fast retransmit: %+v", n.itfA.TcpStats())
	}
}

// TestTcpPersistProbeBreaksZeroWindowDeadlock reproduces the classic
// deadlock: the receiver closes its window, later reopens it, and the
// window-update ACK is lost. Without a persist probe the sender waits
// forever (OnWindowOpen only fires if some later ACK happens to
// arrive); with it, a probe elicits a fresh ACK carrying the open
// window and the transfer resumes.
func TestTcpPersistProbeBreaksZeroWindowDeadlock(t *testing.T) {
	n := newTestNet(t, 1, 1)

	// Drop exactly the server's window-update ACK, armed by the test
	// when it reopens the window.
	dropNextServerAck, droppedUpdate := false, false
	n.link.DropFn = func(idx uint64, f machine.Frame) bool {
		if !dropNextServerAck {
			return false
		}
		tf, ok := decodeTcpFrame(f)
		if !ok || tf.srcIP != IP(10, 0, 0, 2) {
			return false
		}
		dropNextServerAck = false
		droppedUpdate = true
		return true
	}

	var rx []byte
	windowOpened := false
	part1, part2 := []byte("first-part"), []byte("second-part")
	var client *TcpPcb
	firstDelivery := true
	p := establishTcp(t, n, ConnHandler{
		OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
			client = pcb
			_ = pcb.Send(c, iobuf.FromBytes(part1))
		},
		OnWindowOpen: func(c *event.Ctx, pcb *TcpPcb) {
			windowOpened = true
			_ = pcb.Send(c, iobuf.FromBytes(part2))
		},
	}, ConnHandler{
		OnReceive: func(c *event.Ctx, pcb *TcpPcb, buf *iobuf.IOBuf) {
			// Slam the window shut on the first delivery; the ACK for
			// part1 advertises zero.
			if firstDelivery {
				firstDelivery = false
				pcb.SetReceiveWindow(0)
			}
		},
	}, &rx)
	n.k.RunUntil(50 * sim.Millisecond)

	if !bytes.Equal(rx, part1) {
		t.Fatalf("first part not delivered: %q", rx)
	}
	if client.SendWindowRemaining() != 0 {
		t.Fatal("client did not observe the zero window")
	}

	// Reopen the window and push the update ACK - which the tap drops.
	n.b.Mgrs[p.server.core].Spawn(func(c *event.Ctx) {
		p.server.SetReceiveWindow(65535)
		dropNextServerAck = true
		p.server.needAck = true
		p.server.flushAck(c)
	})
	n.k.RunUntil(20 * sim.Second)

	if !droppedUpdate {
		t.Fatal("window-update ACK was not dropped - deadlock not exercised")
	}
	if !windowOpened {
		t.Fatal("OnWindowOpen never fired: zero-window deadlock not broken")
	}
	if want := append(append([]byte(nil), part1...), part2...); !bytes.Equal(rx, want) {
		t.Fatalf("delivered %q, want %q", rx, want)
	}
	if client.PersistProbes == 0 {
		t.Fatal("no persist probes sent")
	}
	if n.itfA.TcpStats().PersistProbes == 0 {
		t.Fatalf("interface stats missed the persist probes: %+v", n.itfA.TcpStats())
	}
}

// TestTcpRetransmitCarriesCurrentAck is the regression test for the
// stale-header replay bug: a segment retransmitted after the receive
// side has made progress must advertise the *current* rcvNxt, not the
// ack frozen into the frame when the segment was first built.
func TestTcpRetransmitCarriesCurrentAck(t *testing.T) {
	cfg := Config{FixedRTO: true, rto: 20 * sim.Millisecond}
	n := newTestNetCfg(t, 1, 1, cfg)

	// Drop the client's first data frame once, and record the ack field
	// of its retransmission (the second client frame with that seq).
	var lostSeq uint32
	var rexmitAck uint32
	state := 0 // 0: waiting for first data frame, 1: waiting for rexmit, 2: done
	n.link.DropFn = func(idx uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		if !ok || tf.srcIP != IP(10, 0, 0, 1) || tf.payloadLen == 0 {
			return false
		}
		switch state {
		case 0:
			lostSeq = tf.hdr.Seq
			state = 1
			return true
		case 1:
			if tf.hdr.Seq == lostSeq {
				rexmitAck = tf.hdr.Ack
				state = 2
			}
		}
		return false
	}

	var serverRx []byte
	reply := []byte("server-progress")
	p := establishTcp(t, n, ConnHandler{
		OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
			_ = pcb.Send(c, iobuf.FromBytes([]byte("to-server")))
		},
	}, ConnHandler{}, &serverRx)
	n.k.RunUntil(5 * sim.Millisecond)
	if state != 1 {
		t.Fatal("first data frame was not dropped")
	}

	// Receive-side progress while the lost segment waits for its RTO:
	// the server pushes data, which the client receives and acks.
	n.b.Mgrs[p.server.core].Spawn(func(c *event.Ctx) {
		_ = p.server.Send(c, iobuf.FromBytes(reply))
	})
	n.k.RunUntil(1 * sim.Second)

	if state != 2 {
		t.Fatal("retransmission never observed")
	}
	if !bytes.Equal(serverRx, []byte("to-server")) {
		t.Fatalf("server got %q", serverRx)
	}
	// The retransmitted frame must acknowledge the server's pushed
	// data: ack == the client's rcvNxt at retransmit time, which covers
	// len(reply) bytes past the handshake.
	wantAck := p.server.sndNxt // server sent everything before the rexmit fired
	if rexmitAck != wantAck {
		t.Fatalf("retransmission carried ack %d, want current %d (stale by %d bytes)",
			rexmitAck, wantAck, wantAck-rexmitAck)
	}
}

// TestTcpReassemblyPurgesOverlappedSegments is the regression test for
// the out-of-order map leak: stashed segments at or below rcvNxt after
// a larger in-order delivery must be purged (fully covered) or trimmed
// and delivered (partially covered), never stranded in the map. When
// two stashed segments overlap and the stream reaches both at once, the
// lower start is delivered first - which one goes first decides how the
// other is trimmed, so the delivery sizes are pinned too (map iteration
// order used to pick, hence the repetitions).
func TestTcpReassemblyPurgesOverlappedSegments(t *testing.T) {
	// One byte per position so delivery order and trimming are checked
	// byte-exactly. Ranges are [start, end) offsets into this stream.
	stream := []byte("0123456789abcdefghijklmnop")
	type rng struct{ start, end int }
	cases := []struct {
		name   string
		ooo    []rng // stashed first, in order
		fill   rng   // the in-order delivery that lands at or past them
		want   int   // total delivered prefix length afterward
		chunks []int // size of each delivery to the application
	}{
		{"fully covered ooo purged", []rng{{10, 15}}, rng{0, 15}, 15, []int{15}},
		{"partially covered ooo trimmed", []rng{{8, 16}}, rng{0, 12}, 16, []int{12, 4}},
		{"multiple stale purged", []rng{{10, 14}, {14, 18}, {5, 9}}, rng{0, 18}, 18, []int{18}},
		{"trim chains into drain", []rng{{6, 10}, {10, 14}}, rng{0, 8}, 14, []int{8, 2, 4}},
		{"overlapping pair reached at once", []rng{{6, 16}, {4, 10}}, rng{0, 8}, 16, []int{8, 2, 6}},
	}
	for _, tc := range slices.Repeat(cases, 8) {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNet(t, 1, 1)
			var rx []byte
			var chunks []int
			p := establishTcp(t, n, ConnHandler{}, ConnHandler{
				OnReceive: func(c *event.Ctx, pcb *TcpPcb, buf *iobuf.IOBuf) {
					chunks = append(chunks, buf.ComputeChainDataLength())
				},
			}, &rx)
			n.k.RunUntil(100 * sim.Millisecond)
			if p.server == nil || p.server.State() != "Established" {
				t.Fatal("not established")
			}
			base := p.server.rcvNxt
			rxPool := iobuf.NewPool(len(stream))
			inject := func(c *event.Ctx, r rng) {
				hdr := TcpHeader{
					SrcPort: p.server.key.rport,
					DstPort: p.server.key.lport,
					Seq:     base + uint32(r.start),
					Ack:     p.server.sndNxt,
					DataOff: TcpHeaderLen,
					Flags:   tcpACK | tcpPSH,
					Window:  65535,
				}
				// As the driver does: a pooled buffer, lent for the call.
				buf := rxPool.Get(r.end - r.start)
				copy(buf.Append(r.end-r.start), stream[r.start:r.end])
				p.server.input(c, hdr, buf)
				buf.Free()
			}
			n.b.Mgrs[p.server.core].Spawn(func(c *event.Ctx) {
				for _, r := range tc.ooo {
					inject(c, r)
				}
				inject(c, tc.fill)
			})
			n.k.RunUntil(200 * sim.Millisecond)

			if !bytes.Equal(rx, stream[:tc.want]) {
				t.Fatalf("delivered %q, want %q", rx, stream[:tc.want])
			}
			if p.server.rcvNxt != base+uint32(tc.want) {
				t.Fatalf("rcvNxt advanced %d, want %d", p.server.rcvNxt-base, tc.want)
			}
			if len(p.server.ooo) != 0 {
				t.Fatalf("%d segments stranded in the reassembly map", len(p.server.ooo))
			}
			if !slices.Equal(chunks, tc.chunks) {
				t.Fatalf("delivery sizes %v, want %v", chunks, tc.chunks)
			}
			if rxPool.Outstanding() != 0 {
				t.Fatalf("%d receive buffers were stashed and never freed", rxPool.Outstanding())
			}
		})
	}
}

// TestTcpCloseDuringHandshake is the regression test for the PCB leak:
// closing a connection whose handshake never completes must abort it -
// empty connection table, OnClosed exactly once, no armed timers left.
func TestTcpCloseDuringHandshake(t *testing.T) {
	t.Run("SynSent to blackhole", func(t *testing.T) {
		n := newTestNet(t, 1, 1)
		n.link.DropFn = func(idx uint64, f machine.Frame) bool { return true }
		closed := 0
		var pcb *TcpPcb
		n.spawnA(func(c *event.Ctx) {
			var err error
			pcb, err = n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{
				OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) { closed++ },
			})
			if err != nil {
				t.Errorf("connect: %v", err)
			}
		})
		n.k.RunUntil(10 * sim.Millisecond) // SYN lost, RTO armed
		if pcb.State() != "SynSent" {
			t.Fatalf("precondition: state %s, want SynSent", pcb.State())
		}
		n.a.Mgrs[pcb.core].Spawn(func(c *event.Ctx) { pcb.Close(c) })
		// The abort must take effect promptly - not by waiting out the
		// retransmission give-up a hundred seconds later.
		n.k.RunUntil(20 * sim.Millisecond)

		if pcb.State() != "Closed" {
			t.Fatalf("state %s, want Closed", pcb.State())
		}
		if closed != 1 {
			t.Fatalf("OnClosed fired %d times, want 1", closed)
		}
		if _, ok := n.a.Itfs[0].tcp.conns.Get(pcb.key); ok {
			t.Fatal("pcb leaked in the connection table")
		}
		rexmits := pcb.Retransmits
		n.k.RunUntil(500 * sim.Second) // outlast any leaked retransmission ladder
		if closed != 1 {
			t.Fatalf("OnClosed re-fired later (%d times total)", closed)
		}
		if pcb.Retransmits != rexmits {
			t.Fatal("closed pcb kept retransmitting")
		}
	})

	t.Run("SynReceived when the handshake ACK never comes", func(t *testing.T) {
		n := newTestNet(t, 1, 1)
		// Let the client's SYN through, blackhole the server's SYN-ACK
		// (and everything after): the server parks in SynReceived.
		n.link.DropFn = func(idx uint64, f machine.Frame) bool {
			tf, ok := decodeTcpFrame(f)
			return ok && tf.srcIP == IP(10, 0, 0, 2)
		}
		closed := 0
		var server *TcpPcb
		n.spawnB(func(c *event.Ctx) {
			_, err := n.itfB.ListenTcp(80, func(c *event.Ctx, pcb *TcpPcb) ConnHandler {
				// The client retransmits its unanswered SYN, so the
				// listener accepts fresh connections after we abort the
				// first; only the first is under test.
				if server != nil {
					return ConnHandler{}
				}
				server = pcb
				return ConnHandler{
					OnClosed: func(c *event.Ctx, pcb *TcpPcb, err error) { closed++ },
				}
			})
			if err != nil {
				t.Errorf("listen: %v", err)
			}
		})
		n.spawnA(func(c *event.Ctx) {
			_, err := n.itfA.ConnectTcp(c, IP(10, 0, 0, 2), 80, ConnHandler{})
			if err != nil {
				t.Errorf("connect: %v", err)
			}
		})
		n.k.RunUntil(10 * sim.Millisecond)
		if server == nil || server.State() != "SynReceived" {
			t.Fatalf("precondition: server not parked in SynReceived")
		}
		n.b.Mgrs[server.core].Spawn(func(c *event.Ctx) { server.Close(c) })
		n.k.RunUntil(30 * sim.Millisecond)

		if server.State() != "Closed" {
			t.Fatalf("state %s, want Closed", server.State())
		}
		if closed != 1 {
			t.Fatalf("OnClosed fired %d times, want 1", closed)
		}
		if _, ok := n.b.Itfs[0].tcp.conns.Get(server.key); ok {
			t.Fatal("pcb leaked in the connection table")
		}
		n.k.RunUntil(500 * sim.Second) // outlast the client's give-up ladder
		if closed != 1 {
			t.Fatalf("OnClosed re-fired later (%d times total)", closed)
		}
	})
}

// TestTcpKarnRuleSkipsRetransmittedSamples checks that an ACK covering
// a retransmitted segment does not poison the estimator: the RTT
// "sample" measured across a retransmission (which includes the whole
// timeout) must not inflate SRTT.
func TestTcpKarnRuleSkipsRetransmittedSamples(t *testing.T) {
	n := newTestNet(t, 1, 1)
	// Drop the first data frame: its eventual ACK spans send+RTO+resend.
	dropped := false
	n.link.DropFn = func(idx uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		if !ok || dropped || tf.srcIP != IP(10, 0, 0, 1) || tf.payloadLen == 0 {
			return false
		}
		dropped = true
		return true
	}
	var rx []byte
	p := establishTcp(t, n, ConnHandler{
		OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
			_ = pcb.Send(c, iobuf.FromBytes([]byte("sample-me")))
		},
	}, ConnHandler{}, &rx)
	n.k.RunUntil(2 * sim.Second)

	if !dropped || len(rx) == 0 {
		t.Fatal("transfer did not exercise the retransmission")
	}
	if p.client.Retransmits == 0 {
		t.Fatal("no retransmission happened")
	}
	// The only clean samples came from the microsecond-scale handshake
	// and any non-retransmitted data; if the retransmitted segment had
	// been sampled, SRTT would jump past the ~1ms timeout that the
	// recovery waited out.
	if srtt := p.client.SRTT(); srtt <= 0 || srtt >= 500*sim.Microsecond {
		t.Fatalf("SRTT %.1fus - retransmitted segment appears to have been sampled", float64(srtt)/1e3)
	}
}
