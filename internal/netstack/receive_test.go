package netstack

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// The addresses of newTestNet's two ends, and the 4-tuple of the first
// connection A opens to B's port 80.
var (
	macA, macB = EthAddr{0, 0, 0, 0, 0, 1}, EthAddr{0, 0, 0, 0, 0, 2}
	ipA, ipB   = IP(10, 0, 0, 1), IP(10, 0, 0, 2)
)

const (
	clientPort, serverPort uint16 = 49152, 80
	// l4Off is where an IPv4 frame's transport header starts.
	l4Off = EthHeaderLen + Ipv4HeaderLen
)

// ipFrame is an Ethernet frame from A to B carrying an IPv4 packet of
// proto from src to B, whose header claims totalLen bytes (0: its true
// length).
func ipFrame(proto byte, src Ipv4Addr, totalLen int, l4 []byte) []byte {
	b := make([]byte, l4Off+len(l4))
	writeEth(b, EthHeader{Dst: macB, Src: macA, Type: EtherTypeIPv4})
	if totalLen == 0 {
		totalLen = Ipv4HeaderLen + len(l4)
	}
	writeIpv4(b[EthHeaderLen:], Ipv4Header{TotalLen: uint16(totalLen), TTL: 64, Proto: proto, Src: src, Dst: ipB})
	copy(b[l4Off:], l4)
	return b
}

// tcpBytes is a TCP header and its payload.
func tcpBytes(sport, dport uint16, seq, ack uint32, flags byte, data string) []byte {
	b := make([]byte, TcpHeaderLen+len(data))
	writeTcp(b, TcpHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, DataOff: TcpHeaderLen, Flags: flags, Window: 65535})
	copy(b[TcpHeaderLen:], data)
	return b
}

// A frame whose IPv4 total length is below the header's own 20 bytes is
// dropped where it is parsed: it reaches the stack, nothing answers it,
// its receive buffer comes home, and the pair still talks.
func TestIpv4TotalLengthBelowHeaderDropped(t *testing.T) {
	n := newTestNet(t, 1, 1)
	syn := tcpBytes(clientPort, serverPort, 1, 0, tcpSYN, "")
	n.itfB.NIC.Deliver(machine.Frame{Buf: iobuf.FromBytes(ipFrame(ProtoTCP, ipA, 4, syn))})
	n.k.RunFor(sim.Millisecond)
	if n.itfB.RxPackets != 1 || n.itfB.NIC.TxFrames.N != 0 || n.itfB.NIC.RxBuffersOut() != 0 {
		t.Fatalf("the stack got %d frames, sent %d, holds %d receive buffers; want 1, 0, 0",
			n.itfB.RxPackets, n.itfB.NIC.TxFrames.N, n.itfB.NIC.RxBuffersOut())
	}
	var rx []byte
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, &rx)
	n.k.RunFor(sim.Millisecond)
	msg := []byte("after a malformed frame")
	n.spawnA(func(c *event.Ctx) {
		if err := p.client.Send(c, iobuf.FromBytes(msg)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.k.RunFor(sim.Millisecond)
	if !bytes.Equal(rx, msg) || n.itfB.NIC.RxBuffersOut() != 0 {
		t.Fatalf("server received %q holding %d receive buffers, want %q and none", rx, n.itfB.NIC.RxBuffersOut(), msg)
	}
}

// A SYN to the IPv4 limited broadcast address, at a listening port, opens
// nothing: RFC 1122 §4.2.3.10 has TCP ignore it, and the stack, which
// carries no protocol that receives broadcasts, drops every IPv4
// broadcast. B accepts no connection and sends nothing: no SYN-ACK, and no
// ARP request to reach the sender.
func TestBroadcastSynIgnored(t *testing.T) {
	n := newTestNet(t, 1, 1)
	n.link.DropFn = func(uint64, machine.Frame) bool { return true }
	accepted := 0
	n.spawnB(func(c *event.Ctx) {
		if _, err := n.itfB.ListenTcp(serverPort, func(*event.Ctx, *TcpPcb) ConnHandler {
			accepted++
			return ConnHandler{}
		}); err != nil {
			t.Error(err)
		}
	})
	n.k.RunFor(sim.Millisecond)
	syn := tcpBytes(clientPort, serverPort, 1, 0, tcpSYN, "")
	fr := make([]byte, l4Off+len(syn))
	writeEth(fr, EthHeader{Dst: machine.Broadcast, Src: macA, Type: EtherTypeIPv4})
	writeIpv4(fr[EthHeaderLen:], Ipv4Header{TotalLen: uint16(Ipv4HeaderLen + len(syn)), TTL: 64, Proto: ProtoTCP, Src: ipA, Dst: IP(255, 255, 255, 255)})
	copy(fr[l4Off:], syn)
	n.itfB.NIC.Deliver(machine.Frame{Buf: iobuf.FromBytes(fr)})
	n.k.RunFor(10 * sim.Millisecond)
	if n.itfB.RxPackets != 1 || accepted != 0 || n.itfB.tcp.conns.Len() != 0 || n.itfB.NIC.TxFrames.N != 0 {
		t.Fatalf("B got %d frames, accepted %d connections, holds %d and sent %d frames; want 1, 0, 0, 0",
			n.itfB.RxPackets, accepted, n.itfB.tcp.conns.Len(), n.itfB.NIC.TxFrames.N)
	}
}

// The passive open processes the handshake's ACK once. Processed a second
// time, after OnConnected has sent, the same ACK counts as a duplicate of
// that data's, and a real loss would then trigger fast retransmit after
// two duplicates rather than three.
func TestPassiveOpenProcessesHandshakeAckOnce(t *testing.T) {
	n := newTestNet(t, 1, 1)
	dupAcks := -1
	server := ConnHandler{OnConnected: func(c *event.Ctx, pcb *TcpPcb) {
		if err := pcb.Send(c, iobuf.FromBytes(make([]byte, 100))); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Manager().Spawn(func(*event.Ctx) { dupAcks = pcb.dupAcks })
	}}
	establishTcp(t, n, ConnHandler{}, server, nil)
	n.k.RunFor(10 * sim.Millisecond)
	if dupAcks != 0 {
		t.Fatalf("right after the handshake the server has counted %d duplicate ACKs, want 0", dupAcks)
	}
}

// fuzzStates are the states of the server's end that FuzzReceive's first
// byte picks from; fuzzServer's script reaches each.
var fuzzStates = [...]tcpState{tcpSynReceived, tcpEstablished, tcpFinWait1, tcpFinWait2,
	tcpCloseWait, tcpLastAck, tcpClosing, tcpTimeWait}

// fuzzServer opens a connection from A to an echo server on B and brings
// the server's end to state want: the handshake, an acknowledged
// exchange, then closes, with the link dropping A's segments that carry
// neither SYN nor FIN where the script must stop short.
func fuzzServer(t *testing.T, want tcpState) *testNet {
	n := newTestNet(t, 1, 1)
	dropAcks := want == tcpSynReceived
	n.link.DropFn = func(_ uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		return dropAcks && ok && tf.srcIP == ipA && tf.hdr.Flags&(tcpSYN|tcpFIN) == 0
	}
	echo := ConnHandler{OnReceive: func(c *event.Ctx, pcb *TcpPcb, payload *iobuf.IOBuf) {
		pool, _ := pcb.Pools()
		in := payload.Data()
		out := pool.Get(len(in))
		copy(out.Append(len(in)), in)
		if pcb.Send(c, out) != nil {
			out.Free()
		}
	}}
	p := establishTcp(t, n, ConnHandler{}, echo, nil)
	run := func() { n.k.RunFor(100 * sim.Microsecond) }
	closeClient := func() { n.spawnA(func(c *event.Ctx) { p.client.Close(c) }) }
	closeServer := func() { n.spawnB(func(c *event.Ctx) { p.server.Close(c) }) }
	run()
	if want != tcpSynReceived {
		n.spawnA(func(c *event.Ctx) { _ = p.client.Send(c, iobuf.FromBytes([]byte("ping"))) })
		run()
	}
	switch want {
	case tcpFinWait1:
		dropAcks = true
		closeServer()
	case tcpFinWait2, tcpTimeWait:
		closeServer()
	case tcpCloseWait, tcpLastAck:
		closeClient()
	case tcpClosing:
		dropAcks = true
		closeClient()
		closeServer()
	}
	run()
	switch want {
	case tcpLastAck:
		dropAcks = true
		closeServer()
	case tcpTimeWait:
		closeClient()
	}
	run()
	dropAcks = false
	if p.server.state != want {
		t.Fatalf("the script for %v left the server's end in %v", want, p.server.State())
	}
	return n
}

// FuzzReceive feeds raw frames to B's stack while its end of a connection
// is in one of fuzzStates (the first byte picks it). The rest of the input
// is frames, each a length byte and that many bytes, delivered to B's NIC
// 20 µs apart; in a TCP frame of the connection's 4-tuple, seq and ack are
// offsets from the server's rcvNxt and sndUna. After every frame nothing
// has panicked and every live connection on either end has sndUna <=
// sndNxt. At the end both ends abort whatever is live; once every ARP
// resolution the frames started has timed out, every pool on both
// interfaces and both NICs' receive buffers are home.
func FuzzReceive(f *testing.F) {
	conn := func(seq, ack uint32, flags byte, data string) []byte {
		return ipFrame(ProtoTCP, ipA, 0, tcpBytes(clientPort, serverPort, seq, ack, flags, data))
	}
	arp := func(op uint16) []byte {
		b := make([]byte, EthHeaderLen+ArpPacketLen)
		writeEth(b, EthHeader{Dst: macB, Src: macA, Type: EtherTypeARP})
		writeArp(b[EthHeaderLen:], ArpPacket{Op: op, SenderHW: macA, SenderIP: ipA, TargetHW: macB, TargetIP: ipB})
		return b
	}
	// A datagram of an IP protocol the stack does not carry: 17, UDP, from
	// port 5000 to 9, 12 bytes long, no checksum.
	udp := []byte{0x13, 0x88, 0x00, 0x09, 0x00, 0x0c, 0x00, 0x00, 'd', 'a', 't', 'a'}
	input := func(state tcpState, frames ...[]byte) []byte {
		in := []byte{byte(slices.Index(fuzzStates[:], state))}
		for _, fr := range frames {
			in = append(append(in, byte(len(fr))), fr...)
		}
		return in
	}
	f.Add(input(tcpSynReceived, conn(0, 1, tcpACK, "data on the handshake's ACK")))
	f.Add(input(tcpEstablished, conn(0, 0, tcpACK|tcpPSH, "in order"), conn(20, 0, tcpACK, "out of order"), conn(8, 0, tcpACK, "filled")))
	f.Add(input(tcpEstablished, conn(0, 0, tcpACK, ""), conn(0, 0, tcpACK, ""), conn(0, 0, tcpACK, "")))
	f.Add(input(tcpFinWait1, conn(0, 1, tcpACK|tcpFIN, "")))
	f.Add(input(tcpFinWait2, conn(0, 0, tcpACK|tcpFIN, "last words")))
	f.Add(input(tcpCloseWait, conn(0, 0, tcpRST, "")))
	f.Add(input(tcpLastAck, conn(0, 1, tcpACK, "")))
	f.Add(input(tcpClosing, conn(1, 1, tcpACK, "")))
	f.Add(input(tcpTimeWait, conn(0, 0, tcpRST, ""), conn(0, 0, tcpSYN, "")))
	f.Add(input(tcpEstablished, ipFrame(ProtoTCP, ipA, 0, tcpBytes(40000, serverPort, 7, 0, tcpSYN, "")),
		ipFrame(ProtoTCP, IP(10, 0, 0, 9), 0, tcpBytes(40000, 81, 7, 0, tcpACK, ""))))
	f.Add(input(tcpEstablished, arp(arpOpRequest), arp(arpOpReply), ipFrame(17, ipA, 0, udp)))
	f.Add(input(tcpEstablished, ipFrame(ProtoTCP, ipA, 4, tcpBytes(clientPort, serverPort, 0, 0, tcpACK, "")))) // total length below the header
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := fuzzServer(t, fuzzStates[int(in[0])%len(fuzzStates)])
		itfs := []*Interface{n.itfA, n.itfB}
		key := tcpKey{rip: ipA, rport: clientPort, lport: serverPort}
		for in = in[1:]; len(in) > 0; {
			size := min(int(in[0]), len(in)-1)
			fr := bytes.Clone(in[1 : 1+size])
			in = in[1+size:]
			if p, ok := n.itfB.tcp.conns.Get(key); ok && len(fr) >= l4Off+TcpHeaderLen {
				if ip, err := parseIpv4(fr[EthHeaderLen:]); err == nil && ip.Proto == ProtoTCP && ip.Src == key.rip &&
					binary.BigEndian.Uint16(fr[l4Off:]) == key.rport && binary.BigEndian.Uint16(fr[l4Off+2:]) == key.lport {
					seq, ack := fr[l4Off+4:], fr[l4Off+8:]
					binary.BigEndian.PutUint32(seq, binary.BigEndian.Uint32(seq)+p.rcvNxt)
					binary.BigEndian.PutUint32(ack, binary.BigEndian.Uint32(ack)+p.sndUna)
				}
			}
			n.itfB.NIC.Deliver(machine.Frame{Buf: iobuf.FromBytes(fr)})
			n.k.RunFor(20 * sim.Microsecond)
			for _, itf := range itfs {
				itf.tcp.conns.ForEach(func(_ tcpKey, p *TcpPcb) bool {
					if !seqLEQ(p.sndUna, p.sndNxt) {
						t.Fatalf("%v's connection to port %d in %v has sndUna %d past sndNxt %d", itf.Addr, p.key.rport, p.state, p.sndUna, p.sndNxt)
					}
					return true
				})
			}
		}
		for _, itf := range itfs {
			itf.tcp.conns.ForEach(func(_ tcpKey, p *TcpPcb) bool {
				itf.St.Mgrs[p.core].Spawn(func(c *event.Ctx) {
					if p.state != tcpClosed {
						p.Abort(c)
					}
				})
				return true
			})
		}
		n.k.RunFor(arpTimeout + 10*sim.Millisecond)
		for _, itf := range itfs {
			if h, v, p, rx := itf.hdrPool.Outstanding(), itf.views.Outstanding(), itf.payload.Outstanding(), itf.NIC.RxBuffersOut(); h+v+p+rx != 0 {
				t.Fatalf("%v has out %d head elements, %d view descriptors, %d payload elements, %d receive buffers; want none",
					itf.Addr, h, v, p, rx)
			}
		}
	})
}
