package netstack

import (
	"cmp"

	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// Config names the ablations a stack can be built with. The zero value
// is the calibrated native stack: adaptive RTO, fast retransmit, adaptive
// polling, no copies, and the costs of internal/costs. The GPOS baseline
// runs the same protocol logic and charges its own, larger, per-operation
// costs on top.
type Config struct {
	// FixedRTO turns off the RFC 6298 estimator: every connection times
	// out on the initial RTO for its whole life (the lossy experiment's
	// baseline).
	FixedRTO bool
	// NoFastRetransmit turns off recovery on three duplicate ACKs, which
	// repairs a single dropped segment in a window in about one RTT
	// instead of a full RTO.
	NoFastRetransmit bool
	// NoPolling keeps every receive queue interrupt-driven: the driver
	// never switches to polling (Figure 5's polling ablation).
	NoPolling bool
	// ForceCopyPerByte, when non-zero, charges that many ns per byte on
	// both receive and transmit - the zero-copy ablation: it simulates a
	// stack that copies at the app boundary like a conventional socket
	// layer.
	ForceCopyPerByte float64
	// rto, when non-zero, replaces initialRTO (tests).
	rto sim.Time
}

// Protocol constants of the stack. Timeouts are a connection's
// behaviour, not the cost of any work, so they live here rather than in
// internal/costs.
const (
	// mss is the TCP maximum segment size.
	mss = 1460
	// initialRTO is the retransmission timeout a connection uses until
	// its first RTT sample (and for its whole life under FixedRTO).
	initialRTO = 200 * sim.Millisecond
	// rtoMin and rtoMax clamp the per-connection timeout. rtoMax also
	// bounds the exponential backoff ladder, so a stalled flow keeps
	// probing instead of sleeping for minutes.
	rtoMin, rtoMax = 1 * sim.Millisecond, 5 * sim.Second
	// maxRetransmitTime bounds how long one segment is retried before the
	// connection is torn down as dead. Time-based (rather than a retry
	// count) so the adaptive path, whose RTO can be microseconds, keeps
	// the same patience toward a rebooting peer as the fixed path.
	maxRetransmitTime = 100 * sim.Second
	// arpTimeout bounds an unanswered ARP resolution.
	arpTimeout = 100 * sim.Millisecond
	// pollBatchThreshold is the number of frames one receive interrupt
	// must find to flip the driver into polling (paper §3.2's "interrupt
	// rate exceeds a configurable threshold"); pollIdleRounds empty polls
	// turn interrupts back on.
	pollBatchThreshold, pollIdleRounds = 8, 16
)

// baseRTO is the timeout a connection starts from: initialRTO unless a
// test replaced it.
func (c *Config) baseRTO() sim.Time { return cmp.Or(c.rto, initialRTO) }

// Stack is one machine's network stack instance. It owns the interfaces
// and the protocol layers. One event manager per core drives it.
type Stack struct {
	M    *machine.Machine
	Mgrs []*event.Manager
	Cfg  Config
	Itfs []*Interface

	// Audit, when non-nil, receives a typed event for every TCP state
	// transition and loss-recovery action (retransmit, fast retransmit,
	// persist probe) on this stack; AuditNode labels those events with
	// the owning node's id. The stack itself has no node concept, so the
	// embedder (internal/hosted, or a test harness) wires both after
	// construction.
	Audit     *audit.Log
	AuditNode int
}

// NewStack creates a stack over the machine's event managers.
func NewStack(m *machine.Machine, mgrs []*event.Manager, cfg Config) *Stack {
	return &Stack{M: m, Mgrs: mgrs, Cfg: cfg}
}

// queueCore maps a NIC queue index to the core that services it.
func (s *Stack) queueCore(q int) int { return q % len(s.Mgrs) }

// AddInterface attaches a NIC with a static address configuration and
// brings up its receive queues.
func (s *Stack) AddInterface(nic *machine.NIC, addr, mask Ipv4Addr) *Interface {
	itf := &Interface{
		St:   s,
		NIC:  nic,
		Addr: addr,
		Mask: mask,
		arp:  newArpCache(),
		tcp:  newTcpLayer(),

		hdrPool: iobuf.NewPool(headerClass),
		payload: iobuf.NewPool(mss),
		views:   iobuf.NewPool(0),
	}
	itf.tcp.itf = itf
	s.Itfs = append(s.Itfs, itf)
	for qi, q := range nic.Queues {
		coreID := s.queueCore(qi)
		mgr := s.Mgrs[coreID]
		drv := &queueDriver{itf: itf, q: q, mgr: mgr}
		drv.idle = event.NewIdleHandler(drv.poll)
		vec := mgr.AllocateVector(drv.onIRQ)
		q.SetIRQ(mgr.Core(), vec)
		itf.drivers = append(itf.drivers, drv)
	}
	return itf
}
