package netstack

import (
	"fmt"

	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
)

// arpCache maps IPv4 addresses to Ethernet addresses and tracks in-flight
// resolutions. Within the native environment all mutation happens on
// kernel events, so no lock is needed - mirroring how the C++ system hides
// the representative coordination behind the Ebb interface.
type arpCache struct {
	entries map[Ipv4Addr]EthAddr
	pending map[Ipv4Addr][]future.Promise[EthAddr]
}

func newArpCache() *arpCache {
	return &arpCache{
		entries: map[Ipv4Addr]EthAddr{},
		pending: map[Ipv4Addr][]future.Promise[EthAddr]{},
	}
}

// arpFind resolves ip to a MAC address. Cached entries fulfill the future
// synchronously (the fast path the paper notes, which EthArpSend takes
// without coming here); otherwise an ARP request goes out and the future
// fulfills on reply or fails on timeout.
func (itf *Interface) arpFind(c *event.Ctx, ip Ipv4Addr) future.Future[EthAddr] {
	if mac, ok := itf.arp.entries[ip]; ok {
		return future.Ready(mac)
	}
	p := future.NewPromise[EthAddr]()
	first := len(itf.arp.pending[ip]) == 0
	itf.arp.pending[ip] = append(itf.arp.pending[ip], p)
	if first {
		itf.sendArp(c, arpOpRequest, machine.Broadcast, ip)
		mgr := c.Manager()
		mgr.After(arpTimeout, func(*event.Ctx) {
			waiters := itf.arp.pending[ip]
			if len(waiters) == 0 {
				return // resolved in time
			}
			delete(itf.arp.pending, ip)
			for _, w := range waiters {
				w.SetError(fmt.Errorf("netstack: arp timeout resolving %v", ip))
			}
		})
	}
	return p.Future()
}

func (itf *Interface) sendArp(c *event.Ctx, op uint16, targetHW EthAddr, targetIP Ipv4Addr) {
	pkt := ArpPacket{
		Op:       op,
		SenderHW: itf.NIC.Mac,
		SenderIP: itf.Addr,
		TargetHW: targetHW,
		TargetIP: targetIP,
	}
	// The frame fits a head element of the interface's pool, as
	// newPacket's headers do: a reply allocates nothing.
	buf := itf.hdrPool.Get(EthHeaderLen + ArpPacketLen)
	dst := targetHW
	if op == arpOpRequest {
		dst = machine.Broadcast
	}
	writeEth(buf.Append(EthHeaderLen), EthHeader{Dst: dst, Src: itf.NIC.Mac, Type: EtherTypeARP})
	writeArp(buf.Append(ArpPacketLen), pkt)
	itf.transmit(c, buf, 0)
}

func (itf *Interface) receiveArp(c *event.Ctx, buf *iobuf.IOBuf) {
	pkt, err := parseArp(buf.Data())
	if err != nil {
		return
	}
	// Opportunistically learn the sender mapping.
	if !pkt.SenderIP.IsZero() {
		itf.arp.entries[pkt.SenderIP] = pkt.SenderHW
		if waiters, ok := itf.arp.pending[pkt.SenderIP]; ok {
			delete(itf.arp.pending, pkt.SenderIP)
			for _, w := range waiters {
				w.SetValue(pkt.SenderHW)
			}
		}
	}
	if pkt.Op == arpOpRequest && pkt.TargetIP == itf.Addr {
		itf.sendArp(c, arpOpReply, pkt.SenderHW, pkt.SenderIP)
	}
}
