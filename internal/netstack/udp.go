package netstack

import (
	"fmt"

	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
)

// UdpHandler receives one datagram's payload, synchronously from the
// driver. An overwhelmed application simply drops - the stack provides no
// buffering (paper §3.6). The payload is lent for the call, as
// ConnHandler.OnReceive's is: to keep it or send it on, Retain it or copy.
type UdpHandler func(c *event.Ctx, src Ipv4Addr, srcPort uint16, payload *iobuf.IOBuf)

// udpLayer is an interface's UDP port table.
type udpLayer struct {
	itf      *Interface
	handlers map[uint16]UdpHandler
	nextPort uint16
}

func newUdpLayer() *udpLayer {
	return &udpLayer{handlers: map[uint16]UdpHandler{}, nextPort: 49152}
}

// BindUdp installs a datagram handler on a port. Port 0 picks an ephemeral
// port. The bound port is returned.
func (itf *Interface) BindUdp(port uint16, h UdpHandler) (uint16, error) {
	u := itf.udp
	if port == 0 {
		for {
			port = u.nextPort
			u.nextPort++
			if u.nextPort == 0 {
				u.nextPort = 49152
			}
			if _, used := u.handlers[port]; !used {
				break
			}
		}
	}
	if _, used := u.handlers[port]; used {
		return 0, fmt.Errorf("netstack: udp port %d in use", port)
	}
	u.handlers[port] = h
	return port, nil
}

// UnbindUdp removes a datagram handler.
func (itf *Interface) UnbindUdp(port uint16) { delete(itf.udp.handlers, port) }

func (u *udpLayer) receive(c *event.Ctx, ip Ipv4Header, buf *iobuf.IOBuf) {
	hdr, err := parseUdp(buf.Data())
	if err != nil {
		return
	}
	h, ok := u.handlers[hdr.DstPort]
	if !ok {
		return // no listener: drop (ICMP port-unreachable omitted)
	}
	buf.Advance(UdpHeaderLen)
	if want := int(hdr.Length) - UdpHeaderLen; want >= 0 && want < buf.Length() {
		buf.TrimEnd(buf.Length() - want)
	}
	c.Charge(costs.AppDeliverNs)
	h(c, ip.Src, hdr.SrcPort, buf)
}

// SendUdp transmits payload as one datagram. The payload chain is consumed.
func (itf *Interface) SendUdp(c *event.Ctx, srcPort uint16, dst Ipv4Addr, dstPort uint16, payload *iobuf.IOBuf) future.Future[future.Unit] {
	payloadLen := payload.ComputeChainDataLength()
	hdr, udp := itf.newPacket(ProtoUDP, dst, UdpHeaderLen, payloadLen)
	writeUdp(udp, UdpHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UdpHeaderLen + payloadLen)})
	hdr.AppendChain(payload)
	hash := FlowHash(itf.Addr, srcPort, dst, dstPort)
	return itf.EthArpSend(c, EtherTypeIPv4, dst, hdr, hash)
}
