package machine

import (
	"ebbrt/internal/costs"
	"ebbrt/internal/sim"
)

// Link is a full-duplex point-to-point Ethernet link with finite bandwidth
// and propagation delay, like the directly-connected 10GbE pair in the
// paper's testbed. Each direction serializes frames independently.
type Link struct {
	K *sim.Kernel
	// DropFn, when set, is consulted per frame (with a monotonically
	// increasing index) and may drop it - fault injection for
	// retransmission tests. Deterministic by construction.
	DropFn func(index uint64, f Frame) bool

	a, b       *NIC
	aBusyUntil sim.Time // a -> b direction
	bBusyUntil sim.Time // b -> a direction
	frameIndex uint64
}

// NewLink creates a 10GbE-like link between two NICs and attaches both.
func NewLink(k *sim.Kernel, a, b *NIC) *Link {
	l := &Link{K: k, a: a, b: b}
	a.Attach(linkEnd{l, true})
	b.Attach(linkEnd{l, false})
	return l
}

func (l *Link) serialization(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / costs.LinkBitsPerSecond * 1e9)
}

func (l *Link) send(fl *flight, fromA bool) {
	idx := l.frameIndex
	l.frameIndex++
	if l.DropFn != nil && l.DropFn(idx, fl.f) {
		fl.drop()
		return
	}
	now := l.K.Now()
	busy := &l.aBusyUntil
	dst := l.b
	if !fromA {
		busy = &l.bBusyUntil
		dst = l.a
	}
	start := now
	if *busy > start {
		start = *busy
	}
	txDone := start + l.serialization(fl.size)
	*busy = txDone
	fl.dst, fl.stage = dst, stageWire
	l.K.PostAt(txDone+costs.LinkPropagationNs, fl.run)
}

// linkEnd is the Port a NIC transmits into.
type linkEnd struct {
	l     *Link
	fromA bool
}

func (e linkEnd) carry(fl *flight) { e.l.send(fl, e.fromA) }

// Switch is a learning Ethernet switch with per-output-port serialization.
// Multi-node deployments (hosted frontend plus native backends, paper §2.1)
// hang all machines off one switch.
type Switch struct {
	K *sim.Kernel
	// DropFn, when set, is consulted per ingress frame (with a
	// monotonically increasing index) and may drop it - the switch-level
	// analogue of Link.DropFn, for injecting frame loss into multi-node
	// deployments. Deterministic by construction.
	DropFn func(index uint64, f Frame) bool

	ports      []*switchPort
	table      map[MAC]*switchPort
	frameIndex uint64
}

// NewSwitch creates an empty switch.
func NewSwitch(k *sim.Kernel) *Switch {
	return &Switch{K: k, table: map[MAC]*switchPort{}}
}

// Connect attaches a NIC to a new switch port.
func (s *Switch) Connect(n *NIC) {
	p := &switchPort{sw: s, nic: n}
	s.ports = append(s.ports, p)
	n.Attach(p)
}

func (s *Switch) forward(fl *flight, from *switchPort) {
	idx := s.frameIndex
	s.frameIndex++
	if s.DropFn != nil && s.DropFn(idx, fl.f) {
		fl.drop()
		return
	}
	// Learn the source address. Both addresses sit in the head element; a
	// runt frame teaches nothing and floods.
	var dst, src MAC
	if b := fl.f.Buf.Data(); len(b) >= 12 {
		copy(dst[:], b[:6])
		copy(src[:], b[6:12])
		s.table[src] = from
	}
	if out, ok := s.table[dst]; ok && !dst.IsBroadcast() {
		s.deliver(fl, out)
		return
	}
	// Flood: broadcast or unknown destination. Every copy flies on a
	// record of its own, from the sender's pool like the first, and holds
	// the chain.
	copies := 0
	for _, p := range s.ports {
		if p == from {
			continue
		}
		c := fl
		if copies++; copies > 1 {
			fl.f.Buf.Retain()
			c = fl.owner.newFlight(fl.f, fl.size)
		}
		s.deliver(c, p)
	}
	if copies == 0 {
		fl.drop()
	}
}

func (s *Switch) deliver(fl *flight, out *switchPort) {
	now := s.K.Now()
	start := now + costs.SwitchLatencyNs
	if out.busyUntil > start {
		start = out.busyUntil
	}
	done := start + sim.Time(float64(fl.size*8)/costs.SwitchBitsPerSecond*1e9)
	out.busyUntil = done
	fl.dst, fl.stage = out.nic, stageWire
	s.K.PostAt(done, fl.run)
}

type switchPort struct {
	sw        *Switch
	nic       *NIC
	busyUntil sim.Time
}

func (p *switchPort) carry(fl *flight) { p.sw.forward(fl, p) }
