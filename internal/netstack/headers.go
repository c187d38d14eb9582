package netstack

import (
	"encoding/binary"
	"fmt"

	"ebbrt/internal/iobuf"
)

// Header sizes in bytes.
const (
	EthHeaderLen  = 14
	ArpPacketLen  = 28
	Ipv4HeaderLen = 20 // no options
	TcpHeaderLen  = 20 // no options except in SYN (MSS), handled explicitly
)

// EthHeader is a parsed Ethernet header.
type EthHeader struct {
	Dst, Src EthAddr
	Type     uint16
}

func parseEth(b []byte) (EthHeader, error) {
	if len(b) < EthHeaderLen {
		return EthHeader{}, fmt.Errorf("netstack: short ethernet header (%d)", len(b))
	}
	var h EthHeader
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.Type = binary.BigEndian.Uint16(b[12:14])
	return h, nil
}

func writeEth(b []byte, h EthHeader) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.Type)
}

// ARP opcodes.
const (
	arpOpRequest = 1
	arpOpReply   = 2
)

// ArpPacket is a parsed IPv4-over-Ethernet ARP packet.
type ArpPacket struct {
	Op                 uint16
	SenderHW, TargetHW EthAddr
	SenderIP, TargetIP Ipv4Addr
}

func parseArp(b []byte) (ArpPacket, error) {
	if len(b) < ArpPacketLen {
		return ArpPacket{}, fmt.Errorf("netstack: short arp packet (%d)", len(b))
	}
	var p ArpPacket
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderHW[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetHW[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

func writeArp(b []byte, p ArpPacket) {
	binary.BigEndian.PutUint16(b[0:2], 1)      // hardware: ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // protocol: IPv4
	b[4], b[5] = 6, 4                          // address lengths
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderHW[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetHW[:])
	copy(b[24:28], p.TargetIP[:])
}

// Ipv4Header is a parsed IPv4 header (options unsupported).
type Ipv4Header struct {
	TotalLen uint16
	TTL      byte
	Proto    byte
	Src, Dst Ipv4Addr
}

func parseIpv4(b []byte) (Ipv4Header, error) {
	if len(b) < Ipv4HeaderLen {
		return Ipv4Header{}, fmt.Errorf("netstack: short ipv4 header (%d)", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return Ipv4Header{}, fmt.Errorf("netstack: ip version %d", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl != Ipv4HeaderLen {
		return Ipv4Header{}, fmt.Errorf("netstack: ip options unsupported (ihl %d)", ihl)
	}
	var h Ipv4Header
	if h.TotalLen = binary.BigEndian.Uint16(b[2:4]); h.TotalLen < Ipv4HeaderLen {
		return Ipv4Header{}, fmt.Errorf("netstack: ipv4 total length %d below its header", h.TotalLen)
	}
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, nil
}

func writeIpv4(b []byte, h Ipv4Header) {
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], 0)      // id
	binary.BigEndian.PutUint16(b[6:8], 0x4000) // DF
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0 // checksum placeholder
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	ck := Checksum(b[:Ipv4HeaderLen], 0)
	binary.BigEndian.PutUint16(b[10:12], ck)
}

// TCP flag bits.
const (
	tcpFIN = 1 << 0
	tcpSYN = 1 << 1
	tcpRST = 1 << 2
	tcpPSH = 1 << 3
	tcpACK = 1 << 4
)

// TcpHeader is a parsed TCP header.
type TcpHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          int // header length in bytes
	Flags            byte
	Window           uint16
}

func parseTcp(b []byte) (TcpHeader, error) {
	if len(b) < TcpHeaderLen {
		return TcpHeader{}, fmt.Errorf("netstack: short tcp header (%d)", len(b))
	}
	h := TcpHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		DataOff: int(b[12]>>4) * 4,
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}
	if h.DataOff < TcpHeaderLen || h.DataOff > len(b) {
		return TcpHeader{}, fmt.Errorf("netstack: bad tcp data offset %d", h.DataOff)
	}
	return h, nil
}

func writeTcp(b []byte, h TcpHeader) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = byte(h.DataOff/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], 0) // checksum offloaded
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent
}

// headerClass is the capacity of an interface's pooled head elements: the
// longest header stack the interface writes.
const headerClass = EthHeaderLen + Ipv4HeaderLen + TcpHeaderLen

// newPacket takes the head element of an outgoing IPv4 packet to dst
// from the interface's pool, behind the headroom EthArpSend exposes for
// the Ethernet header, and writes the IP header for an n-byte transport
// header and payloadLen bytes of payload. It returns the element and the
// transport header's bytes, for the caller to fill; the payload is
// chained after the element, not copied into it.
func (itf *Interface) newPacket(proto byte, dst Ipv4Addr, n, payloadLen int) (*iobuf.IOBuf, []byte) {
	b := itf.hdrPool.Get(EthHeaderLen + Ipv4HeaderLen + n)
	b.Append(EthHeaderLen)
	b.Advance(EthHeaderLen)
	writeIpv4(b.Append(Ipv4HeaderLen), Ipv4Header{
		TotalLen: uint16(Ipv4HeaderLen + n + payloadLen),
		TTL:      64,
		Proto:    proto,
		Src:      itf.Addr,
		Dst:      dst,
	})
	return b, b.Append(n)
}
