package netstack

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/rcu"
	"ebbrt/internal/sim"
)

// tcpState is the TCP connection state machine.
type tcpState int

const (
	tcpClosed tcpState = iota
	tcpSynSent
	tcpSynReceived
	tcpEstablished
	tcpFinWait1
	tcpFinWait2
	tcpCloseWait
	tcpLastAck
	tcpClosing
	tcpTimeWait
)

func (s tcpState) String() string {
	return [...]string{"Closed", "SynSent", "SynReceived", "Established",
		"FinWait1", "FinWait2", "CloseWait", "LastAck", "Closing", "TimeWait"}[s]
}

// seqLT is a wraparound-safe sequence comparison.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ is a wraparound-safe sequence comparison.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// tcpKey identifies a connection on an interface (the local address is the
// interface's).
type tcpKey struct {
	rip   Ipv4Addr
	rport uint16
	lport uint16
}

func tcpKeyHash(k tcpKey) uint64 {
	return rcu.Uint64Hash(uint64(k.rip.Uint32())<<32 | uint64(k.rport)<<16 | uint64(k.lport))
}

// ConnHandler carries the application callbacks for one TCP connection.
// All callbacks run synchronously on the connection's core.
type ConnHandler struct {
	// OnConnected fires when the handshake completes.
	OnConnected func(c *event.Ctx, pcb *TcpPcb)
	// OnReceive delivers in-order payload directly from the driver, as an
	// IOBuf view with no stack-side buffering or copying. The payload is
	// lent for the call (a handler that blocks has not ended its call): it
	// is a view of a receive buffer the stack recycles once the call has
	// returned, so a handler that keeps the bytes or sends them on Retains
	// the element (and Frees it when done) or copies.
	OnReceive func(c *event.Ctx, pcb *TcpPcb, payload *iobuf.IOBuf)
	// OnAcked reports n bytes newly acknowledged by the peer - the signal
	// applications use to manage their own send buffering.
	OnAcked func(c *event.Ctx, pcb *TcpPcb, n int)
	// OnRemoteClosed fires when the peer half-closes (FIN received while
	// established); the local side may still send until it calls Close.
	OnRemoteClosed func(c *event.Ctx, pcb *TcpPcb)
	// OnClosed fires when the connection reaches Closed; err is non-nil
	// for resets and failures.
	OnClosed func(c *event.Ctx, pcb *TcpPcb, err error)
	// OnWindowOpen fires when a zero remote window reopens.
	OnWindowOpen func(c *event.Ctx, pcb *TcpPcb)
}

// TcpListener accepts inbound connections on a port.
type TcpListener struct {
	accept func(c *event.Ctx, pcb *TcpPcb) ConnHandler
}

// tcpLayer is an interface's TCP state: listeners plus the RCU connection
// table the paper describes for lock-free lookup.
type tcpLayer struct {
	itf       *Interface
	listeners map[uint16]*TcpListener
	conns     *rcu.Table[tcpKey, *TcpPcb]
	nextPort  uint16
	isn       uint32
	ackQueue  []*TcpPcb  // connections owing an ACK after the current drain batch
	ackSpare  []*TcpPcb  // the array flushAcks walked last, reused by the batch after next
	steerFree []*steered // hand-off records not in use
	stats     TcpStats
}

// TcpStats counts loss-recovery actions: each connection keeps its own,
// and the interface sums them across every connection it has carried
// (live and closed) - the observability surface the lossy-link
// experiment reads.
type TcpStats struct {
	// Retransmits counts every retransmitted segment (timeout and fast).
	Retransmits uint64
	// FastRetransmits counts segments recovered by triple-duplicate-ACK
	// fast retransmit rather than a timeout.
	FastRetransmits uint64
	// PersistProbes counts zero-window probe segments.
	PersistProbes uint64
}

// TcpStats reports the interface's aggregate TCP loss-recovery counters.
func (itf *Interface) TcpStats() TcpStats { return itf.tcp.stats }

func newTcpLayer() *tcpLayer {
	return &tcpLayer{
		listeners: map[uint16]*TcpListener{},
		conns:     rcu.NewTable[tcpKey, *TcpPcb](tcpKeyHash, 64),
		nextPort:  49152,
		isn:       10000,
	}
}

// segment is one in-flight (sent, unacknowledged) transmit segment. The
// tracker copies nothing: it holds the frame as first transmitted, whose
// elements after the header are the application's, or views of the bytes
// it handed to Send (immutable from then on), and Retains its pooled
// elements - the header, a payload element, the view descriptor Split cut
// and through it the payload element the view covers - until the segment
// is acknowledged or the connection torn down. A retransmission puts new
// descriptors from the same pool over those bytes (the first frame may
// still be on the wire), each holding what its bytes belong to, behind a
// rebuilt header (a replayed one would re-advertise the ack and window
// from when the segment was first sent).
// sentAt and rexmit feed the RTT estimator: only segments transmitted
// exactly once yield samples (Karn's rule), taken from their last
// transmission time.
type segment struct {
	seq    uint32
	flags  byte
	frame  *iobuf.IOBuf
	seqLen uint32 // sequence space consumed (payload + SYN/FIN)
	sentAt sim.Time
	rexmit bool
	sum    uint64 // the payload's payloadSum at first send, under iobufdebug
}

// payloadSum is the FNV-1a hash of a frame's payload: every element after
// its header element. Written out, not a hash.Hash64, so that it
// allocates nothing and the object budget tests hold under the tag too.
func payloadSum(frame *iobuf.IOBuf) uint64 {
	h := uint64(14695981039346656037)
	for e := frame.Next(); e != frame; e = e.Next() {
		for _, c := range e.Data() {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	return h
}

// verify panics if the segment's payload changed since its first send
// (checkSent).
func (seg *segment) verify(at string) {
	if payloadSum(seg.frame) != seg.sum {
		panic(fmt.Sprintf("netstack: the payload of segment %d (%d bytes) was written while in flight, found %s",
			seg.seq, seg.seqLen, at))
	}
}

// TcpPcb is a TCP protocol control block. It is manipulated only on its
// owning core (chosen when the connection was established), so none of its
// fields need synchronization - the paper's connection-affinity design.
type TcpPcb struct {
	itf   *Interface
	key   tcpKey
	core  int
	state tcpState
	h     ConnHandler

	// Send state.
	sndUna, sndNxt uint32
	sndWnd         uint32
	inflight       []segment
	rtoTimer       event.Timer   // zero when no timer is armed or latched
	onRTO          event.Handler // p.rtoExpired, bound at the first arm
	rtoBackoff     int
	rexmitSince    sim.Time // start of the current retransmission episode (0 = none)

	// RTT estimation (RFC 6298). rto == 0 means no sample yet; the
	// connection then times out on Cfg.baseRTO().
	srtt, rttvar, rto sim.Time

	// Fast-retransmit state: duplicate ACKs seen at sndUna, and whether
	// the current loss window already triggered a fast retransmit (one
	// per window; further recovery is the RTO's job).
	dupAcks      int
	fastRecovery bool

	// Zero-window persist state: when the peer closes its window and
	// nothing is in flight, the RTO cannot fire, so a lost window-update
	// ACK would deadlock the sender forever. The persist timer probes
	// with one already-acked byte to force a fresh ACK (and window) out
	// of the peer.
	persistTimer   event.Timer
	onPersist      event.Handler // p.persistExpired, bound at the first arm
	persistBackoff int

	// Receive state.
	rcvNxt uint32
	rcvWnd uint32
	ooo    map[uint32]oooSegment

	flowHash  uint32
	needAck   bool
	queuedAck bool

	TcpStats // this connection's share of the interface's counters
}

type oooSegment struct {
	payload *iobuf.IOBuf
	fin     bool
	seqLen  uint32
}

// State returns the connection state name (for logs and tests).
func (p *TcpPcb) State() string { return p.state.String() }

// setState moves the connection state machine, publishing the
// transition to the stack's audit log when one is attached. Every
// transition after PCB creation goes through here so the audit stream
// sees the complete lifecycle (SynSent→Established→…→Closed).
func (p *TcpPcb) setState(c *event.Ctx, s tcpState) {
	if p.state == s {
		return
	}
	from := p.state
	p.state = s
	if a := p.itf.St.Audit; a != nil {
		a.Emit(c.Now(), p.itf.St.AuditNode, audit.TCPState, audit.Fields{
			"from":  from.String(),
			"to":    s.String(),
			"lport": int(p.key.lport),
			"rport": int(p.key.rport),
		})
	}
}

// recovered counts one loss-recovery action (retransmit, fast
// retransmit, persist probe) on the connection and on its interface, and
// publishes it when an audit log is attached.
func (p *TcpPcb) recovered(c *event.Ctx, kind audit.Kind) {
	for _, s := range [...]*TcpStats{&p.TcpStats, &p.itf.tcp.stats} {
		switch kind {
		case audit.TCPRetransmit:
			s.Retransmits++
		case audit.TCPFastRetransmit:
			s.FastRetransmits++
		case audit.TCPPersistProbe:
			s.PersistProbes++
		}
	}
	if a := p.itf.St.Audit; a != nil {
		a.Emit(c.Now(), p.itf.St.AuditNode, kind, audit.Fields{
			"lport": int(p.key.lport),
			"rport": int(p.key.rport),
		})
	}
}

// Core reports the owning core.
func (p *TcpPcb) Core() int { return p.core }

// Pools reports the interface's pools an application builds what it sends
// in: payload elements of class MSS, and view descriptors over bytes it
// lends. The stack frees both as the peer acknowledges them.
func (p *TcpPcb) Pools() (payload, views *iobuf.Pool) { return p.itf.payload, p.itf.views }

// SendWindowRemaining reports how many bytes the peer's advertised window
// currently allows. Per the paper, applications check this before sending
// and buffer (or aggregate) themselves when it is exhausted.
func (p *TcpPcb) SendWindowRemaining() int {
	inFlight := p.sndNxt - p.sndUna
	if uint32(inFlight) >= p.sndWnd {
		return 0
	}
	return int(p.sndWnd - inFlight)
}

// SetReceiveWindow sets the advertised receive window - the pacing control
// the stack hands to the application instead of kernel socket buffers.
func (p *TcpPcb) SetReceiveWindow(n int) {
	if n < 0 {
		n = 0
	}
	if n > 65535 {
		n = 65535
	}
	p.rcvWnd = uint32(n)
}

// ListenTcp installs a listener. accept is invoked for each new connection
// (already established) and returns the connection's handler callbacks.
func (itf *Interface) ListenTcp(port uint16, accept func(c *event.Ctx, pcb *TcpPcb) ConnHandler) (*TcpListener, error) {
	t := itf.tcp
	if _, used := t.listeners[port]; used {
		return nil, fmt.Errorf("netstack: tcp port %d in use", port)
	}
	l := &TcpListener{accept: accept}
	t.listeners[port] = l
	return l, nil
}

// ConnectTcp opens a connection to dst:dstPort. The handler's OnConnected
// fires when the handshake completes. The connection is owned by the
// invoking core.
func (itf *Interface) ConnectTcp(c *event.Ctx, dst Ipv4Addr, dstPort uint16, h ConnHandler) (*TcpPcb, error) {
	t := itf.tcp
	var lport uint16
	for {
		lport = t.nextPort
		t.nextPort++
		if t.nextPort == 0 {
			t.nextPort = 49152
		}
		if _, exists := t.conns.Get(tcpKey{rip: dst, rport: dstPort, lport: lport}); !exists {
			break
		}
	}
	// A window of 1 leaves room for the SYN until the peer advertises.
	pcb := t.newPcb(c, tcpKey{rip: dst, rport: dstPort, lport: lport}, 1, tcpSynSent)
	pcb.h = h
	pcb.sendSegment(c, tcpSYN, nil)
	return pcb, nil
}

// newPcb makes a connection in state s, owned by the calling core, with a
// fresh initial sequence number, and enters it in the table.
func (t *tcpLayer) newPcb(c *event.Ctx, key tcpKey, sndWnd uint32, s tcpState) *TcpPcb {
	t.isn += 64000
	pcb := &TcpPcb{
		itf:      t.itf,
		key:      key,
		core:     c.Core().ID,
		sndUna:   t.isn,
		sndNxt:   t.isn,
		sndWnd:   sndWnd,
		rcvWnd:   65535,
		ooo:      map[uint32]oooSegment{},
		flowHash: FlowHash(t.itf.Addr, key.lport, key.rip, key.rport),
	}
	pcb.setState(c, s)
	t.conns.Put(key, pcb)
	return pcb
}

// Send transmits payload on an established connection, segmenting at MSS.
// It fails if the payload exceeds the remote window: the application is
// responsible for checking SendWindowRemaining and buffering excess
// (paper §3.6) - the stack never queues application data. The chain is
// moved, not copied: Send takes the descriptors, with one holder of any
// pool-born element among them, frames and the in-flight tracker borrow
// the bytes, and the caller must not write to them again. A Send that
// fails leaves the chain with the caller.
func (p *TcpPcb) Send(c *event.Ctx, payload *iobuf.IOBuf) error {
	if p.state != tcpEstablished && p.state != tcpCloseWait {
		return fmt.Errorf("netstack: send in state %v", p.state)
	}
	n := payload.ComputeChainDataLength()
	if n > p.SendWindowRemaining() {
		return fmt.Errorf("netstack: send of %d bytes exceeds remote window %d", n, p.SendWindowRemaining())
	}
	if n == 0 {
		payload.Free()
		return nil
	}
	// Cut the chain into one view per MSS, each cut a descriptor from the
	// interface's pool that holds the element it cuts into; each goes out
	// behind its own header (scatter/gather).
	for payload != nil {
		rest := payload.Split(mss, p.itf.views)
		p.sendSegment(c, tcpACK|tcpPSH, payload)
		payload = rest
	}
	return nil
}

// Close initiates an orderly shutdown (FIN). Closing a connection whose
// handshake has not completed aborts it instead: there is no data an
// orderly FIN could protect, and leaving the PCB armed in the table
// would leak it forever if the handshake never completes.
func (p *TcpPcb) Close(c *event.Ctx) {
	switch p.state {
	case tcpEstablished:
		p.setState(c, tcpFinWait1)
		p.sendSegment(c, tcpFIN|tcpACK, nil)
	case tcpCloseWait:
		p.setState(c, tcpLastAck)
		p.sendSegment(c, tcpFIN|tcpACK, nil)
	case tcpSynSent, tcpSynReceived:
		p.reset(c, nil)
	}
}

// Abort sends RST and drops the connection immediately.
func (p *TcpPcb) Abort(c *event.Ctx) { p.reset(c, fmt.Errorf("netstack: connection aborted")) }

// reset sends RST and tears the connection down; OnClosed gets err.
func (p *TcpPcb) reset(c *event.Ctx, err error) {
	p.sendRawSegment(c, p.sndNxt, p.rcvNxt, tcpRST|tcpACK, nil)
	p.teardown(c, err)
}

// sendSegment builds and transmits one segment carrying payload (may be
// nil), consuming sequence space and arming retransmission.
func (p *TcpPcb) sendSegment(c *event.Ctx, flags byte, payload *iobuf.IOBuf) {
	seq := p.sndNxt
	var seqLen uint32
	if payload != nil {
		seqLen = uint32(payload.ComputeChainDataLength())
	}
	if flags&tcpSYN != 0 || flags&tcpFIN != 0 {
		seqLen++
	}
	frame := p.buildFrame(seq, p.rcvNxt, flags, payload)
	p.sndNxt += seqLen
	if seqLen > 0 {
		frame.Retain()
		seg := segment{seq: seq, flags: flags, frame: frame, seqLen: seqLen, sentAt: c.Now()}
		if checkSent {
			seg.sum = payloadSum(frame)
		}
		p.inflight = append(p.inflight, seg)
		p.armRTO()
	}
	p.transmitFrame(c, frame)
	p.needAck = false // every segment carries the current ack
}

// sendRawSegment transmits a segment without consuming sequence space
// (pure ACKs, RSTs, retransmissions use buildFrame directly).
func (p *TcpPcb) sendRawSegment(c *event.Ctx, seq, ack uint32, flags byte, payload *iobuf.IOBuf) {
	p.transmitFrame(c, p.buildFrame(seq, ack, flags, payload))
}

// buildFrame writes the ip+tcp headers into a head element from the
// interface's pool and chains payload (may be nil) behind it.
func (p *TcpPcb) buildFrame(seq, ack uint32, flags byte, payload *iobuf.IOBuf) *iobuf.IOBuf {
	n := 0
	if payload != nil {
		n = payload.ComputeChainDataLength()
	}
	buf, tcp := p.itf.newPacket(ProtoTCP, p.key.rip, TcpHeaderLen, n)
	writeTcp(tcp, TcpHeader{
		SrcPort: p.key.lport,
		DstPort: p.key.rport,
		Seq:     seq,
		Ack:     ack,
		DataOff: TcpHeaderLen,
		Flags:   flags,
		Window:  uint16(p.rcvWnd),
	})
	buf.AppendChain(payload)
	return buf
}

func (p *TcpPcb) transmitFrame(c *event.Ctx, frame *iobuf.IOBuf) {
	c.Charge(costs.StackPerPacketNs)
	// ARP failures surface via retransmission timeout, as on real stacks.
	_ = p.itf.EthArpSend(c, EtherTypeIPv4, p.key.rip, frame, p.flowHash)
}

// backoff is the current RTO - the adaptive estimate when one exists
// (RFC 6298), else the configured initial RTO - doubled shift times and
// clamped to rtoMax: the retransmission and persist timers' interval.
func (p *TcpPcb) backoff(shift int) sim.Time {
	// Cap the shift so the ladder saturates at rtoMax instead of
	// overflowing sim.Time.
	d := p.CurrentRTO() << min(shift, 30)
	if d > rtoMax || d <= 0 {
		d = rtoMax
	}
	return d
}

// sampleRTT folds one measurement into the SRTT/RTTVAR estimator
// (RFC 6298 §2) and recomputes the clamped RTO.
func (p *TcpPcb) sampleRTT(r sim.Time) {
	if r <= 0 {
		r = 1
	}
	if p.srtt == 0 {
		p.srtt = r
		p.rttvar = r / 2
	} else {
		diff := p.srtt - r
		if diff < 0 {
			diff = -diff
		}
		p.rttvar = (3*p.rttvar + diff) / 4
		p.srtt = (7*p.srtt + r) / 8
	}
	p.rto = min(max(p.srtt+4*p.rttvar, rtoMin), rtoMax)
}

// SRTT reports the smoothed RTT estimate (0 before the first sample).
func (p *TcpPcb) SRTT() sim.Time { return p.srtt }

// CurrentRTO reports the timeout the next retransmission timer will use
// (before backoff).
func (p *TcpPcb) CurrentRTO() sim.Time {
	if !p.itf.St.Cfg.FixedRTO && p.rto > 0 {
		return p.rto
	}
	return p.itf.St.Cfg.baseRTO()
}

// armRTO starts the retransmission timer if not running, once per segment
// and without allocating: the handler is bound once, the timer is pooled.
func (p *TcpPcb) armRTO() {
	if p.rtoTimer != (event.Timer{}) {
		return
	}
	if p.onRTO == nil {
		p.onRTO = p.rtoExpired
	}
	p.rtoTimer = p.itf.St.Mgrs[p.core].After(p.backoff(p.rtoBackoff), p.onRTO)
}

// rtoExpired is the retransmission timeout's handler.
func (p *TcpPcb) rtoExpired(c *event.Ctx) {
	p.rtoTimer = event.Timer{}
	if len(p.inflight) == 0 {
		return
	}
	now := c.Now()
	if p.rexmitSince == 0 {
		p.rexmitSince = now
	} else if now-p.rexmitSince > maxRetransmitTime {
		p.teardown(c, fmt.Errorf("netstack: too many retransmissions"))
		return
	}
	p.rtoBackoff++
	// Retransmit the earliest unacked segment (go-back-one; the
	// simulated links do not reorder).
	p.retransmitSegment(c, &p.inflight[0])
	p.armRTO()
}

// retransmitSegment rebuilds and resends one in-flight segment. The
// header is rebuilt from current connection state, so the retransmission
// advertises today's ack and window, not the values from when the
// segment was first sent. Marking the segment excludes it from RTT
// sampling (Karn's rule: an ACK for it could be for either transmission).
func (p *TcpPcb) retransmitSegment(c *event.Ctx, seg *segment) {
	if checkSent {
		seg.verify("at retransmission")
	}
	seg.rexmit = true
	seg.sentAt = c.Now()
	p.recovered(c, audit.TCPRetransmit)
	var payload *iobuf.IOBuf
	for e := seg.frame.Next(); e != seg.frame; e = e.Next() {
		if v := p.itf.views.ViewOf(e); payload == nil {
			payload = v
		} else {
			payload.AppendChain(v)
		}
	}
	p.transmitFrame(c, p.buildFrame(seg.seq, p.rcvNxt, seg.flags, payload))
	p.needAck = false
}

// cancelRTO stops the retransmission timer, also one whose time has come
// and whose handler waits, latched, for the core: an ACK that races the
// timeout leaves one timer, the one its armRTO starts.
func (p *TcpPcb) cancelRTO() {
	p.rtoTimer.Cancel()
	p.rtoTimer = event.Timer{}
}

// armPersist starts the zero-window probe timer if not running. Probes
// back off exponentially from the current RTO up to rtoMax and repeat
// until an ACK reopens the window (or the connection dies): without
// them, a lost window-update ACK leaves both sides waiting forever.
func (p *TcpPcb) armPersist() {
	if p.persistTimer != (event.Timer{}) {
		return
	}
	if p.onPersist == nil {
		p.onPersist = p.persistExpired
	}
	p.persistTimer = p.itf.St.Mgrs[p.core].After(p.backoff(p.persistBackoff), p.onPersist)
}

// persistExpired sends one zero-window probe and re-arms.
func (p *TcpPcb) persistExpired(c *event.Ctx) {
	p.persistTimer = event.Timer{}
	if p.state == tcpClosed || p.sndWnd != 0 {
		return
	}
	p.persistBackoff++
	p.recovered(c, audit.TCPPersistProbe)
	// Probe with one already-acknowledged byte (seq sndNxt-1): the
	// peer discards it as a duplicate and re-ACKs with its current
	// window.
	p.sendRawSegment(c, p.sndNxt-1, p.rcvNxt, tcpACK, p.itf.views.View(probeByte))
	p.armPersist()
}

// probeByte is what every persist probe carries; nothing writes to it.
var probeByte = []byte{0}

func (p *TcpPcb) cancelPersist() {
	p.persistBackoff = 0
	p.persistTimer.Cancel()
	p.persistTimer = event.Timer{}
}

func (p *TcpPcb) teardown(c *event.Ctx, err error) {
	p.cancelRTO()
	p.cancelPersist()
	for i := range p.inflight {
		p.inflight[i].frame.Free()
	}
	p.inflight = nil
	// Out-of-order segments go back lowest start first, so which pool
	// element is reused next does not depend on map iteration order.
	for seq, ok := p.firstOoo(false); ok; seq, ok = p.firstOoo(false) {
		p.ooo[seq].payload.Free()
		delete(p.ooo, seq)
	}
	wasClosed := p.state == tcpClosed
	p.setState(c, tcpClosed)
	p.itf.tcp.conns.Delete(p.key)
	if !wasClosed && p.h.OnClosed != nil {
		p.h.OnClosed(c, p, err)
	}
}

// receive demultiplexes one TCP packet to its connection or listener.
func (t *tcpLayer) receive(c *event.Ctx, ip Ipv4Header, buf *iobuf.IOBuf) {
	hdr, err := parseTcp(buf.Data())
	if err != nil {
		return
	}
	buf.Advance(hdr.DataOff)

	key := tcpKey{rip: ip.Src, rport: hdr.SrcPort, lport: hdr.DstPort}
	if pcb, ok := t.conns.Get(key); ok {
		if pcb.core != c.Core().ID {
			pcb.steer(hdr, buf)
			return
		}
		pcb.input(c, hdr, buf)
		t.queueAck(pcb)
		return
	}

	// No connection: a listener may accept a SYN.
	if l, ok := t.listeners[hdr.DstPort]; ok && hdr.Flags&tcpSYN != 0 && hdr.Flags&tcpACK == 0 {
		t.acceptSyn(c, l, ip, hdr)
		return
	}
	// Otherwise reset (unless this was itself a reset).
	if hdr.Flags&tcpRST == 0 {
		t.sendReset(c, ip, hdr)
	}
}

// steered is one segment on its way from the core whose queue received it
// to the core that owns its connection, a pooled record as machine.flight
// is: run is bound once, so a hand-off allocates nothing.
type steered struct {
	run event.Handler // s.input
	pcb *TcpPcb
	hdr TcpHeader
	buf *iobuf.IOBuf
}

// steer hands a segment to the owning core (a client's RSS queue is rarely
// its connection's core).
func (p *TcpPcb) steer(hdr TcpHeader, buf *iobuf.IOBuf) {
	t := p.itf.tcp
	var s *steered
	if last := len(t.steerFree) - 1; last >= 0 {
		s, t.steerFree = t.steerFree[last], t.steerFree[:last]
	} else {
		s = &steered{}
		s.run = s.input
	}
	buf.Retain()
	s.pcb, s.hdr, s.buf = p, hdr, buf
	p.itf.St.Mgrs[p.core].Spawn(s.run)
}

func (s *steered) input(c *event.Ctx) {
	s.pcb.input(c, s.hdr, s.buf)
	s.buf.Free()
	s.pcb.flushAck(c)
	t := s.pcb.itf.tcp
	s.pcb, s.buf = nil, nil
	t.steerFree = append(t.steerFree, s)
}

// queueAck defers the connection's ACK until the driver finishes the
// current receive batch, coalescing ACKs across segments that arrived
// together (a software analogue of interrupt-batch acknowledgment).
func (t *tcpLayer) queueAck(pcb *TcpPcb) {
	if pcb.needAck && !pcb.queuedAck {
		pcb.queuedAck = true
		t.ackQueue = append(t.ackQueue, pcb)
	}
}

// flushAcks sends coalesced ACKs at the end of a receive batch. The queue
// alternates between two backing arrays, so a connection queued while the
// batch is flushed lands in the other one, not in the array being walked.
func (t *tcpLayer) flushAcks(c *event.Ctx) {
	q := t.ackQueue
	t.ackQueue, t.ackSpare = t.ackSpare[:0], q
	for _, pcb := range q {
		pcb.queuedAck = false
		pcb.flushAck(c)
	}
	clear(q) // hold no connection past its batch
}

func (p *TcpPcb) flushAck(c *event.Ctx) {
	if !p.needAck || p.state == tcpClosed {
		return
	}
	p.needAck = false
	p.sendRawSegment(c, p.sndNxt, p.rcvNxt, tcpACK, nil)
}

func (t *tcpLayer) acceptSyn(c *event.Ctx, l *TcpListener, ip Ipv4Header, hdr TcpHeader) {
	// RSS placed the SYN on this core; affinity follows.
	key := tcpKey{rip: ip.Src, rport: hdr.SrcPort, lport: hdr.DstPort}
	pcb := t.newPcb(c, key, uint32(hdr.Window), tcpSynReceived)
	pcb.rcvNxt = hdr.Seq + 1
	pcb.h = l.accept(c, pcb)
	pcb.sendSegment(c, tcpSYN|tcpACK, nil)
}

func (t *tcpLayer) sendReset(c *event.Ctx, ip Ipv4Header, hdr TcpHeader) {
	tmp := &TcpPcb{
		itf:      t.itf,
		key:      tcpKey{rip: ip.Src, rport: hdr.SrcPort, lport: hdr.DstPort},
		flowHash: FlowHash(t.itf.Addr, hdr.DstPort, ip.Src, hdr.SrcPort),
	}
	tmp.sendRawSegment(c, hdr.Ack, hdr.Seq+1, tcpRST|tcpACK, nil)
}

// input runs the connection state machine for one segment.
func (p *TcpPcb) input(c *event.Ctx, hdr TcpHeader, payload *iobuf.IOBuf) {
	if hdr.Flags&tcpRST != 0 {
		p.teardown(c, fmt.Errorf("netstack: connection reset by peer"))
		return
	}
	plen := payload.ComputeChainDataLength()

	switch p.state {
	case tcpSynSent:
		if hdr.Flags&(tcpSYN|tcpACK) == tcpSYN|tcpACK && hdr.Ack == p.sndNxt {
			p.processAck(c, hdr, plen)
			p.rcvNxt = hdr.Seq + 1
			p.needAck = true
			p.connected(c)
		}
		return
	case tcpSynReceived:
		// The only byte outstanding is the SYN, so an acceptable ACK
		// (RFC 793: SND.UNA < SEG.ACK =< SND.NXT) is exactly sndNxt.
		if hdr.Flags&tcpACK == 0 || hdr.Ack != p.sndNxt {
			return
		}
		p.processAck(c, hdr, plen)
		p.connected(c)
		// Any data carried on the handshake's ACK follows.
	default:
		if hdr.Flags&tcpACK != 0 {
			p.processAck(c, hdr, plen)
		}
	}
	if p.state == tcpClosed {
		return
	}
	p.processData(c, hdr, payload)
}

// connected completes either open: the connection is established, the
// ACK it still owes goes out, then the application hears of it.
func (p *TcpPcb) connected(c *event.Ctx) {
	p.setState(c, tcpEstablished)
	p.flushAck(c)
	if p.h.OnConnected != nil {
		p.h.OnConnected(c, p)
	}
}

// processAck advances the send window and releases retransmission state.
// plen is the byte count of data carried alongside the ACK, used to tell
// a pure duplicate ACK (a loss signal) from a data segment that happens
// to repeat the ack field.
func (p *TcpPcb) processAck(c *event.Ctx, hdr TcpHeader, plen int) {
	ack := hdr.Ack
	wasZero := p.SendWindowRemaining() == 0
	oldWnd := p.sndWnd
	p.sndWnd = uint32(hdr.Window)
	if seqLT(p.sndUna, ack) && seqLEQ(ack, p.sndNxt) {
		p.sndUna = ack
		p.rtoBackoff = 0
		p.rexmitSince = 0
		p.dupAcks = 0
		p.fastRecovery = false
		// Drop fully acknowledged segments, counting the *data* bytes they
		// carried (SYN and FIN consume sequence space but are not data, so
		// the application's OnAcked never fires for handshake traffic).
		// The freshest never-retransmitted segment among them yields an
		// RTT sample (Karn's rule excludes retransmitted ones, whose ACK
		// is ambiguous between transmissions).
		dataAcked := 0
		var sampleFrom sim.Time = -1
		keep := p.inflight[:0]
		for _, seg := range p.inflight {
			if seqLT(ack, seg.seq+seg.seqLen) {
				keep = append(keep, seg)
				continue
			}
			n := int(seg.seqLen)
			if seg.flags&tcpSYN != 0 {
				n--
			}
			if seg.flags&tcpFIN != 0 {
				n--
			}
			dataAcked += n
			if !seg.rexmit && seg.sentAt > sampleFrom {
				sampleFrom = seg.sentAt
			}
			if checkSent {
				seg.verify("at acknowledgment")
			}
			seg.frame.Free()
		}
		// Hold no acknowledged segment - its frame, and through it the
		// application's bytes - in the array's spare capacity.
		clear(p.inflight[len(keep):])
		p.inflight = keep
		if sampleFrom >= 0 {
			p.sampleRTT(c.Now() - sampleFrom)
		}
		p.cancelRTO()
		if len(p.inflight) > 0 {
			p.armRTO()
		}
		// State transitions driven by our FIN being acknowledged. The FIN
		// occupies the last sequence number, so it is covered exactly when
		// the ack reaches sndNxt.
		finCovered := p.sndUna == p.sndNxt
		switch p.state {
		case tcpFinWait1:
			if finCovered {
				p.setState(c, tcpFinWait2)
			}
		case tcpClosing:
			if finCovered {
				p.enterTimeWait(c)
			}
		case tcpLastAck:
			if finCovered {
				p.teardown(c, nil)
				return
			}
		}
		if dataAcked > 0 && p.h.OnAcked != nil {
			p.h.OnAcked(c, p, dataAcked)
		}
	} else if ack == p.sndUna && len(p.inflight) > 0 && plen == 0 &&
		hdr.Flags&(tcpSYN|tcpFIN) == 0 && uint32(hdr.Window) == oldWnd {
		// Duplicate ACK: the receiver got something above a hole. Three
		// in a row mean the segment at sndUna is almost certainly lost -
		// resend it now rather than waiting out the RTO (one fast
		// retransmit per loss window; if that doesn't advance sndUna the
		// timer takes over with backoff).
		p.dupAcks++
		if !p.itf.St.Cfg.NoFastRetransmit && p.dupAcks >= 3 && !p.fastRecovery {
			p.fastRecovery = true
			p.recovered(c, audit.TCPFastRetransmit)
			p.retransmitSegment(c, &p.inflight[0])
			p.cancelRTO()
			p.armRTO()
		}
	}
	// Zero-window persist: with nothing in flight the RTO cannot fire,
	// so only a probe can discover the reopened window if the peer's
	// window-update ACK is lost.
	if p.sndWnd == 0 && len(p.inflight) == 0 &&
		(p.state == tcpEstablished || p.state == tcpCloseWait) {
		p.armPersist()
	} else if p.sndWnd > 0 {
		p.cancelPersist()
	}
	if wasZero && p.SendWindowRemaining() > 0 && p.h.OnWindowOpen != nil {
		p.h.OnWindowOpen(c, p)
	}
}

// processData handles in-order delivery, reassembly, and FIN.
func (p *TcpPcb) processData(c *event.Ctx, hdr TcpHeader, payload *iobuf.IOBuf) {
	seqLen := uint32(payload.ComputeChainDataLength())
	fin := hdr.Flags&tcpFIN != 0
	if fin {
		seqLen++
	}
	if seqLen == 0 {
		return
	}
	seq := hdr.Seq
	// Discard already-received prefix.
	if seqLT(seq, p.rcvNxt) {
		dup := p.rcvNxt - seq
		if dup >= seqLen {
			p.needAck = true // pure duplicate: re-ACK
			return
		}
		payload.Advance(min(int(dup), payload.Length()))
		seq += dup
	}
	if seq != p.rcvNxt {
		// Out of order: stash for reassembly and duplicate-ACK.
		if _, dup := p.ooo[seq]; !dup {
			payload.Retain()
			p.ooo[seq] = oooSegment{payload: payload, fin: fin, seqLen: seqLen - (seq - hdr.Seq)}
		}
		p.needAck = true
		return
	}
	p.deliver(c, payload, fin, seqLen-(seq-hdr.Seq))
	p.drainReassembly(c)
}

// drainReassembly delivers every stashed out-of-order segment the
// receive stream has reached. A large in-order delivery can land at or
// beyond stashed segments that started elsewhere, so matching only the
// exact rcvNxt key would strand them in the map forever (a leak) - and
// a segment the stream has partially overtaken still carries new bytes,
// so it is trimmed and delivered rather than dropped. Reached segments
// are taken lowest start first: when retransmission with a different
// segmentation leaves overlapping entries, the order decides how each
// is trimmed and how many deliveries result, so map iteration order
// must not pick it.
func (p *TcpPcb) drainReassembly(c *event.Ctx) {
	for {
		seq, found := p.firstOoo(true)
		if !found {
			return // whatever remains still has a hole in front of it
		}
		next := p.ooo[seq]
		delete(p.ooo, seq)
		overlap := p.rcvNxt - seq
		if overlap >= next.seqLen {
			next.payload.Free()
			continue // fully covered by what was already delivered
		}
		if overlap > 0 {
			dataLen := int(next.seqLen)
			if next.fin {
				dataLen--
			}
			next.payload.Advance(min(int(overlap), dataLen))
		}
		p.deliver(c, next.payload, next.fin, next.seqLen-overlap)
		next.payload.Free()
	}
}

// firstOoo returns the start of the out-of-order segment that starts
// lowest, among those the stream has reached (starting at or before
// rcvNxt) if reached is set.
func (p *TcpPcb) firstOoo(reached bool) (seq uint32, found bool) {
	// order-free: the lowest start is the same in any iteration order.
	for s := range p.ooo {
		if (!reached || seqLEQ(s, p.rcvNxt)) && (!found || seqLT(s, seq)) {
			seq, found = s, true
		}
	}
	return seq, found
}

// deliver hands in-order payload to the application and advances rcvNxt.
func (p *TcpPcb) deliver(c *event.Ctx, payload *iobuf.IOBuf, fin bool, seqLen uint32) {
	p.rcvNxt += seqLen
	p.needAck = true
	if n := payload.ComputeChainDataLength(); n > 0 && p.h.OnReceive != nil {
		c.Charge(costs.AppDeliverNs)
		p.h.OnReceive(c, p, payload)
	}
	if fin {
		switch p.state {
		case tcpEstablished:
			// Remote half-closed; the local side may still send until it
			// calls Close. OnClosed fires only at full teardown.
			p.setState(c, tcpCloseWait)
			if p.h.OnRemoteClosed != nil {
				p.h.OnRemoteClosed(c, p)
			}
		case tcpFinWait1:
			p.setState(c, tcpClosing)
		case tcpFinWait2:
			p.enterTimeWait(c)
		}
	}
}

// enterTimeWait briefly parks the key before release (shortened 2MSL; the
// simulated network cannot deliver ancient duplicates).
func (p *TcpPcb) enterTimeWait(c *event.Ctx) {
	p.setState(c, tcpTimeWait)
	p.flushAck(c)
	mgr := p.itf.St.Mgrs[p.core]
	mgr.After(1*sim.Millisecond, func(c2 *event.Ctx) {
		p.teardown(c2, nil)
	})
}
