package machine

import (
	"fmt"

	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// Frame is one Ethernet frame in flight: the packet bytes (the Ethernet
// header whole in the head element, payload chained behind it) plus the
// flow hash the sending NIC computed for receive-side scaling, standing in
// for the hardware Toeplitz hash. The chain borrows the sender's bytes;
// nothing between Transmit and Deliver writes to it.
type Frame struct {
	Buf  *iobuf.IOBuf
	Hash uint32
}

// Len reports the frame's total byte length.
func (f Frame) Len() int { return f.Buf.ComputeChainDataLength() }

// Port is anywhere a NIC can hand a frame: the far NIC of a point-to-point
// link, or a switch port.
type Port interface {
	// Send transmits the frame; delivery latency is the port's concern.
	Send(f Frame)
}

// RxQueue is one NIC receive queue. The driver (EbbRT's virtio-net
// equivalent, or the GPOS model) pops frames from it, and may mask its
// interrupt to poll instead - the adaptive strategy of paper §3.2.
type RxQueue struct {
	nic        *NIC
	idx        int
	ring       []Frame
	irqEnabled bool
	vector     int
	core       *Core
}

// Len reports queued frames.
func (q *RxQueue) Len() int { return len(q.ring) }

// Pop removes and returns the oldest frame; ok is false when empty.
func (q *RxQueue) Pop() (Frame, bool) {
	if len(q.ring) == 0 {
		return Frame{}, false
	}
	f := q.ring[0]
	q.ring = q.ring[1:]
	return f, true
}

// SetIRQ binds the queue to an interrupt vector on a core. Drivers allocate
// the vector from their event manager and program it here.
func (q *RxQueue) SetIRQ(core *Core, vector int) {
	q.core = core
	q.vector = vector
	q.irqEnabled = true
}

// EnableIRQ re-enables the queue interrupt (leave polling mode). If frames
// are already queued, the interrupt fires immediately so none are stranded.
func (q *RxQueue) EnableIRQ() {
	q.irqEnabled = true
	if len(q.ring) > 0 && q.core != nil {
		q.core.RaiseIRQ(q.vector)
	}
}

// DisableIRQ masks the queue interrupt (enter polling mode).
func (q *RxQueue) DisableIRQ() { q.irqEnabled = false }

// IRQEnabled reports whether the interrupt is unmasked.
func (q *RxQueue) IRQEnabled() bool { return q.irqEnabled }

// NIC models a virtio-net device (or the bare-metal X520 when the machine
// is not virtualized - the virtio/vhost costs drop to zero contributions on
// that path is controlled by Machine.Cfg.Virtualized).
type NIC struct {
	M      *Machine
	Mac    MAC
	Queues []*RxQueue
	peer   Port
	down   bool

	// Stats
	TxFrames, RxFrames sim.Counter
	TxBytes, RxBytes   sim.Counter
	// DroppedFrames counts frames discarded in either direction while the
	// NIC was down.
	DroppedFrames sim.Counter
}

// NewNIC attaches a NIC with the configured number of receive queues.
func NewNIC(m *Machine, mac MAC) *NIC {
	n := &NIC{M: m, Mac: mac}
	for i := 0; i < m.Cfg.NICQueues; i++ {
		n.Queues = append(n.Queues, &RxQueue{nic: n, idx: i})
	}
	m.NICs = append(m.NICs, n)
	return n
}

// Attach connects the NIC to a port (link endpoint or switch port).
func (n *NIC) Attach(p Port) { n.peer = p }

// SetUp raises or cuts the NIC's connection to its port. A down NIC
// silently discards frames in both directions - the machine is
// unreachable, as after a crash or cable pull - without disturbing any
// state above it, so peers observe the failure only through timeouts.
// Bringing the NIC back up resumes delivery; nothing queued during the
// outage survives it.
func (n *NIC) SetUp(up bool) { n.down = !up }

// Up reports whether the NIC is passing frames.
func (n *NIC) Up() bool { return !n.down }

// Transmit sends a frame. extraDelay lets the caller account for CPU time
// already charged in the current event (the frame leaves when the event's
// virtual work completes, preserving causality in the one-shot event
// execution model). The guest pays the virtio kick; the host side charges
// vhost processing before the wire.
func (n *NIC) Transmit(f Frame, extraDelay sim.Time) {
	if n.peer == nil {
		panic("machine: NIC transmit with no attached port")
	}
	if n.down {
		n.DroppedFrames.Inc()
		return
	}
	n.TxFrames.Inc()
	n.TxBytes.AddN(uint64(f.Len()))
	costs := &n.M.Cfg.Costs
	d := extraDelay + costs.NICLatency
	if n.M.Cfg.Virtualized {
		d += costs.VirtioKick + costs.VhostPerPacket
	}
	n.M.K.Post(d, func() { n.peer.Send(f) })
}

// TxCPUCost reports the CPU time the transmitting core spends in the device
// path (the virtio kick); runtimes charge this to the sending event.
func (n *NIC) TxCPUCost() sim.Time {
	if n.M.Cfg.Virtualized {
		return n.M.Cfg.Costs.VirtioKick
	}
	return 200 * sim.Nanosecond
}

// Deliver is called by the attached port when a frame arrives at this NIC.
// The hypervisor charges vhost processing plus the reception copy, selects
// a receive queue by flow hash, and injects an interrupt if the queue is
// unmasked. The frame is physically copied into fresh guest memory - the
// hypervisor copy both systems pay (paper §4.1.3, charged as RxCopy) and
// the one physical copy a direction makes. It gives the receiver
// descriptors and bytes of its own: the chain it read from is the
// sender's, borrowed from the application and the retransmission tracker.
func (n *NIC) Deliver(f Frame) {
	if n.down {
		n.DroppedFrames.Inc()
		return
	}
	guest := iobuf.New(f.Len())
	f.Buf.ForEach(func(e *iobuf.IOBuf) { copy(guest.Append(e.Length()), e.Data()) })
	f.Buf = guest
	costs := &n.M.Cfg.Costs
	d := costs.RxCopy(f.Len())
	if n.M.Cfg.Virtualized {
		d += costs.VhostPerPacket
	}
	n.M.K.Post(d, func() {
		n.RxFrames.Inc()
		n.RxBytes.AddN(uint64(f.Len()))
		q := n.Queues[int(f.Hash)%len(n.Queues)]
		q.ring = append(q.ring, f)
		if q.irqEnabled && q.core != nil {
			if n.M.Cfg.Virtualized {
				n.M.K.Post(costs.IRQInject, func() { q.core.RaiseIRQ(q.vector) })
			} else {
				q.core.RaiseIRQ(q.vector)
			}
		}
	})
}

// nicPort adapts a NIC as the receiving end of a Port.
type nicPort struct{ n *NIC }

func (p nicPort) Send(f Frame) { p.n.Deliver(f) }

// PortOf returns a Port that delivers into the NIC, for wiring links.
func PortOf(n *NIC) Port { return nicPort{n} }
