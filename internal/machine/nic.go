package machine

import (
	"fmt"

	"ebbrt/internal/costs"
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
// nothing between Transmit and Deliver writes to it. The flight holds one
// holder of each pool-born element of the chain - head element, view
// descriptors - and frees the chain wherever it stops being read. Who holds
// and who frees what: docs/ARCHITECTURE.md, Buffer ownership.
type Frame struct {
	Buf  *iobuf.IOBuf
	Hash uint32
}

// Len reports the frame's total byte length.
func (f Frame) Len() int { return f.Buf.ComputeChainDataLength() }

// Port is anywhere a NIC can hand a frame: one end of a point-to-point
// link, or a switch port.
type Port interface {
	// carry takes over the flight; delivery latency and the record's
	// release on a drop are the port's concern.
	carry(fl *flight)
}

// flight is one frame between Transmit and the receiver's interrupt. The
// same record is posted to the kernel at each hop - device path, wire, rx
// copy, IRQ injection - through run, bound once when the record is made,
// so a hop allocates nothing. A record returns to the pool of the NIC that
// made it when the frame is queued or dropped, on whichever machine: pools
// belong to a NIC (never to the package: kernels run in parallel) and grow
// to the most frames that NIC has had in flight at once.
type flight struct {
	owner *NIC
	run   func() // fl.step
	f     Frame
	size  int // f.Len(), walked once
	stage flightStage
	dst   *NIC     // set by the port that carries the frame
	q     *RxQueue // set once the frame is in a receive ring
}

// flightStage says what a flight's pending kernel event does when it fires.
type flightStage uint8

const (
	stageDevice flightStage = iota // left the sender's device path: onto the port
	stageWire                      // crossed the link or switch: arrive at dst
	stageRxCopy                    // copied into guest memory: ring insert
	stageIRQ                       // interrupt injected: raise it
)

func (fl *flight) step() {
	switch fl.stage {
	case stageDevice:
		fl.owner.peer.carry(fl)
	case stageWire:
		fl.dst.arrive(fl)
	case stageRxCopy:
		fl.dst.enqueue(fl)
	case stageIRQ:
		q := fl.q
		fl.release() // first: the handler may transmit
		q.raise()
	}
}

// drop ends a flight whose frame goes nowhere.
func (fl *flight) drop() {
	fl.f.Buf.Free()
	fl.release()
}

// release returns the record to its pool.
func (fl *flight) release() {
	fl.f, fl.dst, fl.q = Frame{}, nil, nil
	fl.owner.free = append(fl.owner.free, fl)
}

// newFlight takes a record from the NIC's pool for frame f of size bytes.
func (n *NIC) newFlight(f Frame, size int) *flight {
	var fl *flight
	if last := len(n.free) - 1; last >= 0 {
		fl, n.free = n.free[last], n.free[:last]
	} else {
		fl = &flight{owner: n}
		fl.run = fl.step
	}
	fl.f, fl.size = f, size
	return fl
}

// RxQueue is one NIC receive queue. The driver (EbbRT's virtio-net
// equivalent, or the GPOS model) pops frames from it, and may mask its
// interrupt to poll instead - the adaptive strategy of paper §3.2.
type RxQueue struct {
	ring       []Frame // the queue is ring[head:]
	head       int
	irqEnabled bool
	vector     int
	core       *Core
}

// Len reports queued frames.
func (q *RxQueue) Len() int { return len(q.ring) - q.head }

// Pop removes and returns the oldest frame; ok is false when empty.
func (q *RxQueue) Pop() (Frame, bool) {
	if q.head == len(q.ring) {
		return Frame{}, false
	}
	f := q.ring[q.head]
	if q.head++; 2*q.head >= len(q.ring) {
		// Half or more is popped prefix (all of it, on a drain): move the
		// rest down, keeping the array and no popped frame's buffer.
		n := copy(q.ring, q.ring[q.head:])
		clear(q.ring[n:])
		q.ring, q.head = q.ring[:n], 0
	}
	return f, true
}

// raise delivers the queue's interrupt to the core it is bound to.
func (q *RxQueue) raise() { q.core.RaiseIRQ(q.vector) }

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
	if q.Len() > 0 && q.core != nil {
		q.raise()
	}
}

// DisableIRQ masks the queue interrupt (enter polling mode).
func (q *RxQueue) DisableIRQ() { q.irqEnabled = false }

// NIC models a virtio-net device, or the bare-metal X520 when the machine
// is not virtualized (Machine.Cfg.Virtualized): then a frame pays neither
// the virtio kick nor vhost nor an injected interrupt, only the NIC itself.
type NIC struct {
	M      *Machine
	Mac    MAC
	Queues []*RxQueue
	peer   Port
	down   bool
	free   []*flight   // pooled records of frames this NIC put in flight
	rxPool *iobuf.Pool // guest buffers of frames this NIC received

	// Stats
	TxFrames, RxFrames sim.Counter
	TxBytes, RxBytes   sim.Counter
	// DroppedFrames counts frames discarded in either direction while the
	// NIC was down.
	DroppedFrames sim.Counter
}

// rxBufferSize is the one class of receive buffer: an MTU-sized frame with
// room to spare.
const rxBufferSize = 1536

// NewNIC attaches a NIC with the configured number of receive queues.
func NewNIC(m *Machine, mac MAC) *NIC {
	n := &NIC{M: m, Mac: mac, rxPool: iobuf.NewPool(rxBufferSize)}
	for i := 0; i < m.Cfg.NICQueues; i++ {
		n.Queues = append(n.Queues, &RxQueue{})
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

// RxBuffersOut reports the receive buffers filled and not yet freed.
func (n *NIC) RxBuffersOut() int { return n.rxPool.Outstanding() }

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
		f.Buf.Free()
		return
	}
	fl := n.newFlight(f, f.Len())
	n.TxFrames.Inc()
	n.TxBytes.AddN(uint64(fl.size))
	d := extraDelay + costs.NICLatencyNs
	if n.M.Cfg.Virtualized {
		d += costs.VirtioKickNs + costs.VhostPerPacketNs
	}
	fl.stage = stageDevice
	n.M.K.Post(d, fl.run)
}

// TxCPUCost reports the CPU time the transmitting core spends in the device
// path (the virtio kick); runtimes charge this to the sending event.
func (n *NIC) TxCPUCost() sim.Time {
	if n.M.Cfg.Virtualized {
		return costs.VirtioKickNs
	}
	return costs.NativeTxNs
}

// Deliver hands the NIC a frame as if its port had: the way in for frames
// that no NIC transmitted (tests injecting traffic).
func (n *NIC) Deliver(f Frame) { n.arrive(n.newFlight(f, f.Len())) }

// arrive is called when a frame reaches this NIC off its port. The
// hypervisor charges vhost processing plus the reception copy; enqueue
// then selects a receive queue by flow hash and injects an interrupt if
// the queue is unmasked. The frame is physically copied into guest memory -
// the hypervisor copy both systems pay (paper §4.1.3, costs.RxCopyNsPerByte)
// and the one physical copy a direction makes - into one recycled MTU
// buffer of this NIC's. The chain it read from is the sender's, borrowed
// from the application and the retransmission tracker; the flight lets go
// of it here.
func (n *NIC) arrive(fl *flight) {
	if n.down {
		n.DroppedFrames.Inc()
		fl.drop()
		return
	}
	guest := n.rxPool.Get(fl.size)
	fl.f.Buf.ForEach(func(e *iobuf.IOBuf) { copy(guest.Append(e.Length()), e.Data()) })
	fl.f.Buf.Free()
	fl.f.Buf = guest
	d := sim.Time(costs.RxCopyNsPerByte * float64(fl.size))
	if n.M.Cfg.Virtualized {
		d += costs.VhostPerPacketNs
	}
	fl.dst, fl.stage = n, stageRxCopy
	n.M.K.Post(d, fl.run)
}

// enqueue puts the copied frame in its receive ring; the flight ends here
// unless an interrupt is to be injected first.
func (n *NIC) enqueue(fl *flight) {
	n.RxFrames.Inc()
	n.RxBytes.AddN(uint64(fl.size))
	q := n.Queues[int(fl.f.Hash)%len(n.Queues)]
	q.ring = append(q.ring, fl.f)
	irq := q.irqEnabled && q.core != nil
	if irq && n.M.Cfg.Virtualized {
		fl.q, fl.stage = q, stageIRQ
		n.M.K.Post(costs.IRQInjectNs, fl.run)
		return
	}
	fl.release()
	if irq {
		q.raise()
	}
}
