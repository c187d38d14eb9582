package netstack

import (
	"encoding/binary"
	"fmt"

	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
)

// DHCP support (paper §3.6 lists DHCP among the stack's functionality):
// a client state machine (DISCOVER -> OFFER -> REQUEST -> ACK) and a small
// server used by tests and examples to stand in for the cloud provider's
// DHCP service.

const (
	dhcpServerPort uint16 = 67
	dhcpClientPort uint16 = 68

	dhcpOpRequest = 1
	dhcpOpReply   = 2

	dhcpMsgDiscover = 1
	dhcpMsgOffer    = 2
	dhcpMsgRequest  = 3
	dhcpMsgAck      = 5

	dhcpMagic uint32 = 0x63825363

	optMsgType     = 53
	optRequestedIP = 50
	optSubnetMask  = 1
	optEnd         = 255

	dhcpFixedLen = 240 // BOOTP fields + magic cookie
)

// dhcpPacket is the decoded subset of BOOTP/DHCP the stack uses.
type dhcpPacket struct {
	Op      byte
	Xid     uint32
	Yiaddr  Ipv4Addr
	Chaddr  EthAddr
	MsgType byte
	ReqIP   Ipv4Addr
	Mask    Ipv4Addr
}

func marshalDhcp(p dhcpPacket) []byte {
	b := make([]byte, dhcpFixedLen, dhcpFixedLen+16)
	b[0] = p.Op
	b[1] = 1 // htype ethernet
	b[2] = 6 // hlen
	binary.BigEndian.PutUint32(b[4:8], p.Xid)
	copy(b[16:20], p.Yiaddr[:])
	copy(b[28:34], p.Chaddr[:])
	binary.BigEndian.PutUint32(b[236:240], dhcpMagic)
	b = append(b, optMsgType, 1, p.MsgType)
	if !p.ReqIP.IsZero() {
		b = append(b, optRequestedIP, 4, p.ReqIP[0], p.ReqIP[1], p.ReqIP[2], p.ReqIP[3])
	}
	if !p.Mask.IsZero() {
		b = append(b, optSubnetMask, 4, p.Mask[0], p.Mask[1], p.Mask[2], p.Mask[3])
	}
	b = append(b, optEnd)
	return b
}

func parseDhcp(b []byte) (dhcpPacket, error) {
	if len(b) < dhcpFixedLen {
		return dhcpPacket{}, fmt.Errorf("netstack: short dhcp packet (%d)", len(b))
	}
	if binary.BigEndian.Uint32(b[236:240]) != dhcpMagic {
		return dhcpPacket{}, fmt.Errorf("netstack: bad dhcp magic")
	}
	var p dhcpPacket
	p.Op = b[0]
	p.Xid = binary.BigEndian.Uint32(b[4:8])
	copy(p.Yiaddr[:], b[16:20])
	copy(p.Chaddr[:], b[28:34])
	// Parse options.
	i := dhcpFixedLen
	for i < len(b) {
		code := b[i]
		if code == optEnd {
			break
		}
		if code == 0 {
			i++
			continue
		}
		if i+1 >= len(b) {
			break
		}
		l := int(b[i+1])
		if i+2+l > len(b) {
			break
		}
		val := b[i+2 : i+2+l]
		switch code {
		case optMsgType:
			if l >= 1 {
				p.MsgType = val[0]
			}
		case optRequestedIP:
			if l >= 4 {
				copy(p.ReqIP[:], val)
			}
		case optSubnetMask:
			if l >= 4 {
				copy(p.Mask[:], val)
			}
		}
		i += 2 + l
	}
	return p, nil
}

// DhcpLease is the result of a successful DHCP exchange.
type DhcpLease struct {
	Addr Ipv4Addr
	Mask Ipv4Addr
}

// DhcpClient runs the acquire state machine on an interface that does not
// yet have an address. It returns a future fulfilled with the lease.
// The interface's address/mask are installed before fulfillment.
func (itf *Interface) DhcpClient(c *event.Ctx) future.Future[DhcpLease] {
	p := future.NewPromise[DhcpLease]()
	xid := uint32(0x5eb0) + uint32(itf.NIC.Mac[5])
	state := &dhcpClient{itf: itf, xid: xid, promise: p}
	_, err := itf.BindUdp(dhcpClientPort, state.receive)
	if err != nil {
		return future.Fail[DhcpLease](err)
	}
	state.sendDiscover(c)
	c.Manager().After(arpTimeout*10, func(*event.Ctx) {
		if !state.done {
			state.done = true
			itf.UnbindUdp(dhcpClientPort)
			p.SetError(fmt.Errorf("netstack: dhcp timed out"))
		}
	})
	return p.Future()
}

type dhcpClient struct {
	itf     *Interface
	xid     uint32
	offered Ipv4Addr
	mask    Ipv4Addr
	done    bool
	promise future.Promise[DhcpLease]
}

func (d *dhcpClient) send(c *event.Ctx, p dhcpPacket) {
	buf := d.itf.views.View(marshalDhcp(p))
	_ = d.itf.SendUdp(c, dhcpClientPort, IP(255, 255, 255, 255), dhcpServerPort, buf)
}

func (d *dhcpClient) sendDiscover(c *event.Ctx) {
	d.send(c, dhcpPacket{Op: dhcpOpRequest, Xid: d.xid, Chaddr: d.itf.NIC.Mac, MsgType: dhcpMsgDiscover})
}

func (d *dhcpClient) receive(c *event.Ctx, src Ipv4Addr, srcPort uint16, payload *iobuf.IOBuf) {
	if d.done {
		return
	}
	pkt, err := parseDhcp(payload.CopyOut())
	if err != nil || pkt.Xid != d.xid || pkt.Op != dhcpOpReply {
		return
	}
	switch pkt.MsgType {
	case dhcpMsgOffer:
		d.offered = pkt.Yiaddr
		d.mask = pkt.Mask
		d.send(c, dhcpPacket{Op: dhcpOpRequest, Xid: d.xid, Chaddr: d.itf.NIC.Mac,
			MsgType: dhcpMsgRequest, ReqIP: pkt.Yiaddr})
	case dhcpMsgAck:
		d.done = true
		d.itf.UnbindUdp(dhcpClientPort)
		d.itf.Addr = pkt.Yiaddr
		if !pkt.Mask.IsZero() {
			d.itf.Mask = pkt.Mask
		} else if !d.mask.IsZero() {
			d.itf.Mask = d.mask
		}
		d.promise.SetValue(DhcpLease{Addr: d.itf.Addr, Mask: d.itf.Mask})
	}
}

// DhcpServer is a minimal lease server for tests and examples.
type DhcpServer struct {
	itf    *Interface
	next   byte
	base   Ipv4Addr
	mask   Ipv4Addr
	leases map[EthAddr]Ipv4Addr
}

// ServeDhcp starts a DHCP server on the interface handing out addresses
// base+1, base+2, ... with the given mask.
func (itf *Interface) ServeDhcp(base, mask Ipv4Addr) (*DhcpServer, error) {
	s := &DhcpServer{itf: itf, base: base, mask: mask, next: 1, leases: map[EthAddr]Ipv4Addr{}}
	if _, err := itf.BindUdp(dhcpServerPort, s.receive); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *DhcpServer) leaseFor(mac EthAddr) Ipv4Addr {
	if ip, ok := s.leases[mac]; ok {
		return ip
	}
	ip := s.base
	ip[3] += s.next
	s.next++
	s.leases[mac] = ip
	return ip
}

func (s *DhcpServer) receive(c *event.Ctx, src Ipv4Addr, srcPort uint16, payload *iobuf.IOBuf) {
	pkt, err := parseDhcp(payload.CopyOut())
	if err != nil || pkt.Op != dhcpOpRequest {
		return
	}
	reply := dhcpPacket{Op: dhcpOpReply, Xid: pkt.Xid, Chaddr: pkt.Chaddr, Mask: s.mask}
	switch pkt.MsgType {
	case dhcpMsgDiscover:
		reply.MsgType = dhcpMsgOffer
		reply.Yiaddr = s.leaseFor(pkt.Chaddr)
	case dhcpMsgRequest:
		reply.MsgType = dhcpMsgAck
		reply.Yiaddr = s.leaseFor(pkt.Chaddr)
	default:
		return
	}
	buf := s.itf.views.View(marshalDhcp(reply))
	_ = s.itf.SendUdp(c, dhcpServerPort, IP(255, 255, 255, 255), dhcpClientPort, buf)
}
