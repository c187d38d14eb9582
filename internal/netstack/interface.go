package netstack

import (
	"fmt"

	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// Interface is one attached NIC with its address configuration and
// protocol state.
type Interface struct {
	St   *Stack
	NIC  *machine.NIC
	Addr Ipv4Addr
	Mask Ipv4Addr

	arp     *arpCache
	tcp     *tcpLayer
	drivers []*queueDriver
	hdrPool *iobuf.Pool // head elements of transmitted packets (newPacket)
	payload *iobuf.Pool // elements of class MSS applications write what they send into
	views   *iobuf.Pool // view descriptors of transmitted payload bytes

	// RxPackets counts frames delivered to the stack (all queues).
	RxPackets uint64
	// PollModeSwitches counts interrupt->polling transitions, to observe
	// the adaptive driver.
	PollModeSwitches uint64
}

// queueDriver is the per-receive-queue driver: interrupt-driven by
// default, switching to polling under load (paper §3.2's example).
type queueDriver struct {
	itf        *Interface
	q          *machine.RxQueue
	mgr        *event.Manager
	idle       *event.IdleHandler // runs poll; made once, installed while polling
	polling    bool
	emptyPolls int
}

// onIRQ processes every frame available, then decides whether to switch to
// polling.
func (d *queueDriver) onIRQ(c *event.Ctx) {
	n := d.drain(c)
	if !d.itf.St.Cfg.NoPolling && n >= pollBatchThreshold && !d.polling {
		// High interrupt rate: mask the queue and poll from the idle loop.
		d.q.DisableIRQ()
		d.emptyPolls = 0
		d.polling = true
		d.mgr.AddIdleHandler(d.idle)
		d.itf.PollModeSwitches++
	}
}

// poll is the idle-handler body while in polling mode.
func (d *queueDriver) poll(c *event.Ctx) {
	n := d.drain(c)
	if n == 0 {
		d.emptyPolls++
		if d.emptyPolls >= pollIdleRounds {
			// Arrival rate dropped: return to interrupt-driven execution.
			d.mgr.RemoveIdleHandler(d.idle)
			d.polling = false
			d.q.EnableIRQ()
		}
		return
	}
	d.emptyPolls = 0
}

// drain processes all currently queued frames to completion, then flushes
// the ACKs coalesced across the batch. The stack, a popped buffer's one
// holder, lets go when receive returns; whatever keeps it longer (steer,
// the ooo stash) Retains it.
func (d *queueDriver) drain(c *event.Ctx) int {
	n := 0
	for {
		f, ok := d.q.Pop()
		if !ok {
			break
		}
		n++
		d.itf.RxPackets++
		d.itf.receive(c, f.Buf)
		f.Buf.Free()
	}
	if n > 0 {
		d.itf.tcp.flushAcks(c)
	}
	return n
}

// receive demultiplexes one frame, synchronously, on the queue's core. A
// received frame is a single element (NIC.Deliver copied it whole), so
// each layer strips its header with Advance and the application gets a
// view of that one buffer.
func (itf *Interface) receive(c *event.Ctx, buf *iobuf.IOBuf) {
	c.Charge(costs.StackPerPacketNs)
	if f := itf.St.Cfg.ForceCopyPerByte; f > 0 {
		c.Charge(sim.Time(f * float64(buf.ComputeChainDataLength())))
	}
	eth, err := parseEth(buf.Data())
	if err != nil {
		return // malformed: drop
	}
	if eth.Dst != itf.NIC.Mac && !eth.Dst.IsBroadcast() {
		return // not for us
	}
	buf.Advance(EthHeaderLen)
	switch eth.Type {
	case EtherTypeARP:
		itf.receiveArp(c, buf)
	case EtherTypeIPv4:
		itf.receiveIpv4(c, buf)
	}
}

// receiveIpv4 hands TCP segments addressed to this interface to the TCP
// layer and drops everything else: other protocols, and broadcasts, which
// no protocol the stack carries receives (RFC 1122 §4.2.3.10 has TCP
// ignore a SYN sent to one).
func (itf *Interface) receiveIpv4(c *event.Ctx, buf *iobuf.IOBuf) {
	hdr, err := parseIpv4(buf.Data())
	if err != nil || hdr.Dst != itf.Addr || hdr.Proto != ProtoTCP {
		return
	}
	// Trim link-layer padding: the IP total length is authoritative.
	if total := int(hdr.TotalLen); total < buf.Length() {
		buf.TrimEnd(buf.Length() - total)
	}
	buf.Advance(Ipv4HeaderLen)
	itf.tcp.receive(c, hdr, buf)
}

// Route implements the paper's simple routing: on-subnet addresses are
// delivered directly; the stack targets isolated cloud networks and has no
// gateway.
func (itf *Interface) Route(dst Ipv4Addr) (Ipv4Addr, error) {
	if SameSubnet(dst, itf.Addr, itf.Mask) {
		return dst, nil
	}
	return Ipv4Addr{}, fmt.Errorf("netstack: no route to %v (off subnet, no gateway)", dst)
}

// EthArpSend routes an IP packet, resolves the next-hop MAC, prepends the
// Ethernet header (into the headroom newPacket leaves in buf's head
// element) and transmits. With the MAC cached, as for every packet of an
// established flow, the frame leaves at once and nothing is allocated;
// only an ARP miss builds the future chain of the paper's Figure 2 and
// sends on the reply. That continuation runs after the sending event has
// ended, so it re-enters the sending core's loop through Spawn: the
// transmit is charged to, and leaves at the offset of, an event of its
// own. A packet that cannot leave - no route, no ARP answer - is freed.
func (itf *Interface) EthArpSend(c *event.Ctx, proto uint16, dst Ipv4Addr, buf *iobuf.IOBuf, flowHash uint32) future.Future[future.Unit] {
	localDst, err := itf.Route(dst)
	if err != nil {
		buf.Free()
		return future.Fail[future.Unit](err)
	}
	if mac, known := itf.arp.entries[localDst]; known {
		itf.ethSend(c, proto, mac, buf, flowHash)
		return future.Ready(future.Unit{})
	}
	mgr := c.Manager()
	return future.Then(itf.arpFind(c, localDst), func(r future.Result[EthAddr]) (future.Unit, error) {
		mac, err := r.Get()
		if err != nil {
			buf.Free()
			return future.Unit{}, err
		}
		mgr.Spawn(func(c *event.Ctx) { itf.ethSend(c, proto, mac, buf, flowHash) })
		return future.Unit{}, nil
	})
}

// ethSend prepends the Ethernet header and transmits.
func (itf *Interface) ethSend(c *event.Ctx, proto uint16, mac EthAddr, buf *iobuf.IOBuf, flowHash uint32) {
	buf.Retreat(EthHeaderLen)
	writeEth(buf.Data(), EthHeader{Dst: mac, Src: itf.NIC.Mac, Type: proto})
	itf.transmit(c, buf, flowHash)
}

// transmit charges the device-path CPU cost and hands the frame chain to
// the NIC. The frame leaves after the event's accumulated charge, keeping
// virtual-time causality.
func (itf *Interface) transmit(c *event.Ctx, frame *iobuf.IOBuf, flowHash uint32) {
	c.Charge(itf.NIC.TxCPUCost())
	if f := itf.St.Cfg.ForceCopyPerByte; f > 0 {
		c.Charge(sim.Time(f * float64(frame.ComputeChainDataLength())))
	}
	itf.NIC.Transmit(machine.Frame{Buf: frame, Hash: flowHash}, c.Charged())
}
