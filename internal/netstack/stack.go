package netstack

import (
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// Config carries the stack's tunables and CPU cost knobs. Costs model the
// short code path of the native environment; the GPOS baseline charges its
// own, larger, per-operation costs on top of the same protocol logic.
type Config struct {
	// PerPacketCPU is the stack processing cost per packet per direction
	// (header parse/build, demux, connection lookup).
	PerPacketCPU sim.Time
	// AppDeliverCPU is the cost of invoking the application handler
	// (function call, IOBuf bookkeeping).
	AppDeliverCPU sim.Time
	// ArpTimeout bounds an unanswered ARP resolution.
	ArpTimeout sim.Time
	// RTO is the initial TCP retransmission timeout, used until the
	// connection has taken its first RTT sample (and for the connection's
	// whole life when AdaptiveRTO is off).
	RTO sim.Time
	// AdaptiveRTO enables the RFC 6298 SRTT/RTTVAR estimator: each
	// connection samples the RTT of non-retransmitted segments (Karn's
	// rule) and derives its own timeout, clamped to [RTOMin, RTOMax].
	AdaptiveRTO bool
	// RTOMin / RTOMax clamp the per-connection timeout. The clamps also
	// bound the exponential backoff ladder (RTOMax) so a stalled flow
	// keeps probing instead of sleeping for minutes.
	RTOMin, RTOMax sim.Time
	// FastRetransmit enables recovery on three duplicate ACKs, so a
	// single dropped segment in a window is repaired in about one RTT
	// instead of waiting out a full RTO.
	FastRetransmit bool
	// MaxRetransmitTime bounds how long one segment is retried before
	// the connection is torn down as dead. Time-based (rather than a
	// retry count) so the adaptive path, whose RTO can be microseconds,
	// keeps the same patience toward a rebooting peer as the fixed path.
	MaxRetransmitTime sim.Time
	// MSS is the TCP maximum segment size.
	MSS int
	// PollBatchThreshold is the number of frames observed in one receive
	// interrupt that flips the driver into polling mode (paper §3.2's
	// "interrupt rate exceeds a configurable threshold").
	PollBatchThreshold int
	// PollIdleRounds is the number of empty polls before the driver
	// re-enables interrupts.
	PollIdleRounds int
	// AdaptivePolling can be disabled for the ablation benchmark.
	AdaptivePolling bool
	// ForceCopyPerByte, when non-zero, charges a per-byte copy on both
	// receive and transmit - the zero-copy ablation: it simulates a stack
	// that copies at the app boundary like a conventional socket layer.
	ForceCopyPerByte float64
}

// DefaultConfig returns the calibrated native-stack configuration.
func DefaultConfig() Config {
	return Config{
		PerPacketCPU:       350 * sim.Nanosecond,
		AppDeliverCPU:      100 * sim.Nanosecond,
		ArpTimeout:         100 * sim.Millisecond,
		RTO:                200 * sim.Millisecond,
		AdaptiveRTO:        true,
		RTOMin:             1 * sim.Millisecond,
		RTOMax:             5 * sim.Second,
		FastRetransmit:     true,
		MaxRetransmitTime:  100 * sim.Second,
		MSS:                1460,
		PollBatchThreshold: 8,
		PollIdleRounds:     16,
		AdaptivePolling:    true,
	}
}

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
	if cfg.MSS == 0 {
		cfg = DefaultConfig()
	}
	def := DefaultConfig()
	if cfg.RTOMin == 0 {
		cfg.RTOMin = def.RTOMin
	}
	if cfg.RTOMax == 0 {
		cfg.RTOMax = def.RTOMax
	}
	if cfg.MaxRetransmitTime == 0 {
		cfg.MaxRetransmitTime = def.MaxRetransmitTime
	}
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
		udp:  newUdpLayer(),
		tcp:  newTcpLayer(),

		hdrPool: iobuf.NewPool(headerClass),
		payload: iobuf.NewPool(s.Cfg.MSS),
		views:   iobuf.NewPool(0),
	}
	itf.tcp.itf = itf
	itf.udp.itf = itf
	s.Itfs = append(s.Itfs, itf)
	for qi, q := range nic.Queues {
		coreID := s.queueCore(qi)
		mgr := s.Mgrs[coreID]
		drv := &queueDriver{itf: itf, q: q, mgr: mgr}
		vec := mgr.AllocateVector(drv.onIRQ)
		q.SetIRQ(mgr.Core(), vec)
		itf.drivers = append(itf.drivers, drv)
	}
	return itf
}

// InterfaceFor returns the interface that owns addr, or the first
// interface when addr is unspecified.
func (s *Stack) InterfaceFor(addr Ipv4Addr) *Interface {
	for _, itf := range s.Itfs {
		if itf.Addr == addr {
			return itf
		}
	}
	if len(s.Itfs) > 0 {
		return s.Itfs[0]
	}
	return nil
}
