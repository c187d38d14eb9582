package netstack

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// streamEnd is one end of a connection that sends out, as fast as the
// peer's window allows, and collects what it receives. A pooled end copies
// each chunk into payload elements of its interface, as applications
// write what they send, filling each to pooledFill bytes so that the
// stack's MSS cuts land inside them; the other lends its bytes. own is every element it
// handed to Send, with its capacity then: the rest of a frame's payload
// elements are the stack's views.
type streamEnd struct {
	t      *testing.T
	pooled bool
	pcb    *TcpPcb
	out    []byte
	sent   int
	in     []byte
	own    map[*iobuf.IOBuf]int
}

func (e *streamEnd) handler() ConnHandler {
	push := func(c *event.Ctx, pcb *TcpPcb) {
		e.pcb = pcb
		e.push(c)
	}
	return ConnHandler{
		OnConnected:  push,
		OnWindowOpen: push,
		OnAcked:      func(c *event.Ctx, pcb *TcpPcb, _ int) { push(c, pcb) },
		OnReceive:    func(_ *event.Ctx, _ *TcpPcb, payload *iobuf.IOBuf) { e.in = payload.AppendTo(e.in) },
	}
}

func (e *streamEnd) push(c *event.Ctx) {
	for e.sent < len(e.out) {
		w := min(e.pcb.SendWindowRemaining(), len(e.out)-e.sent)
		if w == 0 {
			return
		}
		chunk := iobuf.Wrap(e.out[e.sent : e.sent+w])
		if e.pooled {
			chunk = e.write(e.out[e.sent : e.sent+w])
		}
		chunk.ForEach(func(d *iobuf.IOBuf) { e.own[d] = d.Capacity() })
		if err := e.pcb.Send(c, chunk); err != nil {
			e.t.Errorf("send: %v", err)
			return
		}
		e.sent += w
	}
}

const pooledFill = 1000

// write copies data into payload elements, pooledFill bytes to each.
func (e *streamEnd) write(data []byte) *iobuf.IOBuf {
	pool, _ := e.pcb.Pools()
	var chain *iobuf.IOBuf
	for len(data) > 0 {
		el := pool.Get(pooledFill)
		data = data[copy(el.Append(min(len(data), pooledFill)), data):]
		if chain == nil {
			chain = el
		} else {
			chain.AppendChain(el)
		}
	}
	return chain
}

// stream starts sending n more bytes.
func (e *streamEnd) stream(mgr *event.Manager, n int, salt byte) {
	e.out, e.sent, e.own = make([]byte, n), 0, map[*iobuf.IOBuf]int{}
	for i := range e.out {
		e.out[i] = byte(i*7) ^ salt
	}
	mgr.Spawn(e.push)
}

// heldBy is the payload element of a pooled end whose bytes d covers: d
// itself, or the element a view the stack cut from it holds. A lending
// end's bytes are no pool's.
func (e *streamEnd) heldBy(d *iobuf.IOBuf) *iobuf.IOBuf {
	if !e.pooled || len(d.Data()) == 0 {
		return nil
	}
	at := uintptr(unsafe.Pointer(unsafe.SliceData(d.Data())))
	for p, capacity := range e.own {
		if base := uintptr(unsafe.Pointer(unsafe.SliceData(p.Data()))) - uintptr(p.Headroom()); at >= base && at < base+uintptr(capacity) {
			return p
		}
	}
	e.t.Fatalf("a frame of a pooled end carries bytes of no element it made")
	return nil
}

// checkHome compares what an interface's four pools have out with what
// its live structures hold: a head element per unacknowledged segment, a
// view descriptor per payload element of one that the stack cut rather than
// the sender made, a payload element per one whose bytes an unacknowledged
// segment carries, a receive buffer per frame in a ring and per segment
// stashed out of order. Call it when nothing is on the wire or between
// cores, with the ends whose connections are the interface's.
func checkHome(t *testing.T, what string, itf *Interface, ends ...*streamEnd) (heads, views, payload, rx int) {
	t.Helper()
	for _, q := range itf.NIC.Queues {
		rx += q.Len()
	}
	for _, e := range ends {
		held := map[*iobuf.IOBuf]bool{}
		for _, seg := range e.pcb.inflight {
			heads++
			for d := seg.frame.Next(); d != seg.frame; d = d.Next() {
				if _, own := e.own[d]; !own {
					views++
				}
				if p := e.heldBy(d); p != nil {
					held[p] = true
				}
			}
		}
		payload += len(held)
		rx += len(e.pcb.ooo)
	}
	if got := itf.hdrPool.Outstanding(); got != heads {
		t.Fatalf("%s: %v has %d head elements out, its connections hold %d", what, itf.Addr, got, heads)
	}
	if got := itf.views.Outstanding(); got != views {
		t.Fatalf("%s: %v has %d view descriptors out, its connections hold %d", what, itf.Addr, got, views)
	}
	if got := itf.payload.Outstanding(); got != payload {
		t.Fatalf("%s: %v has %d payload elements out, its connections hold %d", what, itf.Addr, got, payload)
	}
	if got := itf.NIC.RxBuffersOut(); got != rx {
		t.Fatalf("%s: %v has %d receive buffers out, its rings and connections hold %d", what, itf.Addr, got, rx)
	}
	return heads, views, payload, rx
}

// Every pooled element comes home. 256KiB each way - the client's written
// into payload elements, the server's lent - over a link that drops a
// fifth of the data frames exercises the RTO, fast retransmit (both put
// new view descriptors over the payload, holding the elements they cover),
// the out-of-order stash, duplicate segments and the cross-core hand-off;
// then a NIC goes down mid-stream, and a connection is torn down with data
// in flight and segments stashed. After each, the pools have out exactly
// what the connections hold, which is nothing once the stream is
// acknowledged or both ends are closed.
func TestPooledBuffersComeHome(t *testing.T) {
	n := newTestNet(t, 2, 2)
	a, b := &streamEnd{t: t, pooled: true}, &streamEnd{t: t}
	data, sawStash := uint64(0), false
	n.link.DropFn = func(_ uint64, f machine.Frame) bool {
		if b.pcb != nil && len(b.pcb.ooo) > 0 {
			sawStash = true
		}
		if tf, ok := decodeTcpFrame(f); !ok || tf.payloadLen == 0 {
			return false
		}
		data++
		return (data*2654435761>>8)%5 == 0 // no period a retransmission could fall into step with
	}
	p := establishTcp(t, n, a.handler(), b.handler(), nil)
	n.k.RunFor(10 * sim.Millisecond)
	if p.client == nil || p.server == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	a.stream(n.a.Mgrs[p.client.Core()], 256<<10, 0x00)
	b.stream(n.b.Mgrs[p.server.Core()], 256<<10, 0xff)
	// Go-back-one recovery pays a timeout for all but the first hole in a
	// window, and the timeout grows to rtoMax: this takes two virtual minutes.
	n.k.RunFor(200 * sim.Second)
	if !bytes.Equal(a.in, b.out) || !bytes.Equal(b.in, a.out) {
		t.Fatalf("lossy streams: a received %d of %d bytes, b %d of %d", len(a.in), len(b.out), len(b.in), len(a.out))
	}
	sa, sb := n.itfA.TcpStats(), n.itfB.TcpStats()
	if sa.Retransmits == sa.FastRetransmits || sb.Retransmits == sb.FastRetransmits || sa.FastRetransmits+sb.FastRetransmits == 0 || !sawStash {
		t.Fatalf("recovery paths not all taken: %+v, %+v, stash seen %v", sa, sb, sawStash)
	}
	if len(n.itfA.tcp.steerFree) == 0 {
		t.Fatal("no segment crossed cores; the hand-off was not exercised")
	}
	for _, itf := range []*Interface{n.itfA, n.itfB} {
		if heads, views, payload, rx := checkHome(t, "after the lossy streams", itf, a, b); heads != 0 || views != 0 || payload != 0 || rx != 0 {
			t.Fatalf("%d segments, %d views and %d payload elements in flight and %d buffers stashed after everything was acknowledged", heads, views, payload, rx)
		}
	}

	// The server's NIC goes down in the middle of a stream: what the client
	// keeps retransmitting stays held, and comes home when the peer is back.
	n.link.DropFn = nil
	b.in = b.in[:0]
	a.stream(n.a.Mgrs[p.client.Core()], 256<<10, 0x55)
	n.k.RunFor(100 * sim.Microsecond)
	n.itfB.NIC.SetUp(false)
	n.k.RunFor(50 * sim.Millisecond)
	if heads, views, payload, _ := checkHome(t, "peer down", n.itfA, a); heads == 0 || views == 0 || payload == 0 || len(b.in) == 0 || len(b.in) == len(a.out) {
		t.Fatalf("the outage did not fall mid-stream: %d segments, %d views and %d payload elements in flight, %d bytes through", heads, views, payload, len(b.in))
	}
	checkHome(t, "down", n.itfB, b)
	n.itfB.NIC.SetUp(true)
	n.k.RunFor(200 * sim.Second)
	if !bytes.Equal(b.in, a.out) {
		t.Fatalf("after the outage b has %d of %d bytes", len(b.in), len(a.out))
	}
	checkHome(t, "after the outage", n.itfA, a)
	checkHome(t, "after the outage", n.itfB, b)

	// Teardown with data in flight and segments stashed: the first segment
	// of a window never arrives, the client aborts, its RST closes the peer.
	var hole uint32
	n.link.DropFn = func(_ uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		if !ok || tf.payloadLen == 0 {
			return false
		}
		if hole == 0 {
			hole = tf.hdr.Seq
		}
		return tf.hdr.Seq == hole
	}
	b.in = b.in[:0]
	a.stream(n.a.Mgrs[p.client.Core()], 32<<10, 0xaa)
	n.k.RunFor(500 * sim.Microsecond)
	heads, views, payload, _ := checkHome(t, "before the abort", n.itfA, a)
	_, _, _, stashed := checkHome(t, "before the abort", n.itfB, b)
	if heads == 0 || views == 0 || payload == 0 || stashed == 0 || len(b.in) != 0 {
		t.Fatalf("before the abort: %d segments, %d views and %d payload elements in flight, %d stashed, %d bytes delivered", heads, views, payload, stashed, len(b.in))
	}
	n.a.Mgrs[p.client.Core()].Spawn(p.client.Abort)
	n.k.RunFor(10 * sim.Millisecond)
	if p.client.State() != "Closed" || p.server.State() != "Closed" {
		t.Fatalf("after the abort the ends are %s and %s", p.client.State(), p.server.State())
	}
	for _, itf := range []*Interface{n.itfA, n.itfB} {
		if heads, views, payload, rx := checkHome(t, "after both ends closed", itf, a, b); heads != 0 || views != 0 || payload != 0 || rx != 0 {
			t.Fatalf("closed connections hold %d segments, %d views, %d payload elements and %d buffers", heads, views, payload, rx)
		}
	}
}

// Through a learning switch, a frame floods: one head element and the view
// descriptor or payload element behind it fly to every other port and come
// home once, and each receiver's copy is freed by its own stack, whether
// the frame was for it or not. A's segments go to C, whose MAC A holds but
// the switch has never seen (C drops each unanswered: it carries RST), so
// every one is an unknown unicast. Then A's ARP requests for an address no
// one holds flood as broadcasts, and every receive buffer they fill comes
// home too.
func TestPooledBuffersComeHomeThroughFlood(t *testing.T) {
	k := sim.NewKernel()
	sw := machine.NewSwitch(k)
	itfs := make([]*Interface, 3)
	for i := range itfs {
		m := machine.New(k, machine.DefaultConfig("m", 1))
		nic := machine.NewNIC(m, machine.MAC{0, 0, 0, 0, 0, byte(i + 1)})
		sw.Connect(nic)
		st := NewStack(m, []*event.Manager{event.NewManager(m.Cores[0], event.DefaultCosts())}, Config{})
		itfs[i] = st.AddInterface(nic, IP(10, 0, 0, byte(i+1)), IP(255, 255, 255, 0))
	}
	src, dst := itfs[0], itfs[2]
	src.arp.entries[dst.Addr] = dst.NIC.Mac
	const rounds = 10
	for i := 0; i < rounds; i++ {
		src.St.Mgrs[0].Spawn(func(c *event.Ctx) {
			msg := src.views.View([]byte("to C, through everyone"))
			if i%2 == 1 {
				lent := msg
				msg = src.payload.Copy(lent)
				lent.Free()
			}
			_ = sendSegment(c, src, dst.Addr, msg)
		})
	}
	k.Run()
	if b, c := itfs[1].NIC.RxFrames.N, dst.NIC.RxFrames.N; b != rounds || c != rounds || dst.NIC.TxFrames.N != 0 {
		t.Fatalf("%d segments reached B and %d reached C, which sent %d frames; want %d, %d and 0", b, c, dst.NIC.TxFrames.N, rounds, rounds)
	}
	for _, itf := range itfs {
		checkHome(t, "after the unicast flood", itf)
	}

	for i := 0; i < rounds; i++ {
		src.St.Mgrs[0].Spawn(func(c *event.Ctx) { src.arpFind(c, IP(10, 0, 0, byte(100+i))) })
	}
	k.Run()
	for _, itf := range itfs[1:] {
		if got := itf.NIC.RxFrames.N; got != 2*rounds {
			t.Fatalf("%v received %d frames, want %d segments and %d ARP requests", itf.Addr, got, rounds, rounds)
		}
	}
	for _, itf := range itfs {
		checkHome(t, "after the broadcast flood", itf)
	}
}

// The path of a pure ACK - Transmit, link, receive copy, interrupt, the
// receiving stack's input, and the events it runs as - allocates nothing
// once the pools are warm (under iobufdebug, a Ctx per event).
func TestPureAckAllocatesNothing(t *testing.T) {
	n := newTestNet(t, 1, 1)
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunFor(10 * sim.Millisecond)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	ack := func(c *event.Ctx) { p.client.sendRawSegment(c, p.client.sndNxt, p.client.rcvNxt, tcpACK, nil) }
	step := func() {
		n.spawnA(ack)
		n.k.Run()
	}
	step()
	events, frames := n.a.Mgrs[0].Dispatched+n.b.Mgrs[0].Dispatched, n.itfB.RxPackets
	step()
	events = n.a.Mgrs[0].Dispatched + n.b.Mgrs[0].Dispatched - events
	if n.itfB.RxPackets != frames+1 || events == 0 {
		t.Fatalf("one step delivered %d frames in %d events", n.itfB.RxPackets-frames, events)
	}
	want := 0.0
	if event.CheckedCtx {
		want = float64(events)
	}
	if got := testing.AllocsPerRun(100, step); got != want {
		t.Fatalf("a pure ACK allocated %.0f objects over %d events, want %.0f", got, events, want)
	}
}

// An acknowledged segment is gone from the tracker, spare capacity
// included: nothing keeps the application's bytes reachable once the peer
// has them.
func TestAckedSegmentsAreNotRetained(t *testing.T) {
	n := newTestNet(t, 1, 1)
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunFor(10 * sim.Millisecond)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	// Two lent buffers, one segment each; the second is lost until told
	// otherwise, so the first is acknowledged alone.
	first, second := new([1000]byte), new([1000]byte)
	lent := []weak.Pointer[[1000]byte]{weak.Make(first), weak.Make(second)}
	holdSecond := true
	var secondSeq uint32
	n.link.DropFn = func(_ uint64, f machine.Frame) bool {
		tf, ok := decodeTcpFrame(f)
		return ok && holdSecond && tf.payloadLen > 0 && tf.hdr.Seq == secondSeq
	}
	chains := []*iobuf.IOBuf{iobuf.Wrap(first[:]), iobuf.Wrap(second[:])}
	first, second = nil, nil
	n.spawnA(func(c *event.Ctx) {
		secondSeq = p.client.sndNxt + uint32(chains[0].Length())
		for _, chain := range chains {
			if err := p.client.Send(c, chain); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		chains = nil // Send took them
	})
	n.k.RunFor(500 * sim.Microsecond)
	if len(p.client.inflight) != 1 {
		t.Fatalf("%d segments in flight, want the second alone", len(p.client.inflight))
	}
	spare := func() (n int) {
		for _, seg := range p.client.inflight[len(p.client.inflight):cap(p.client.inflight)] {
			if seg.frame != nil {
				n++
			}
		}
		return n
	}
	runtime.GC()
	if spare() != 0 {
		t.Fatal("the tracker's spare capacity still points at a frame")
	}
	if lent[0].Value() != nil || lent[1].Value() == nil {
		t.Fatalf("one of two acknowledged: first reachable %v, second reachable %v, want false and true",
			lent[0].Value() != nil, lent[1].Value() != nil)
	}
	holdSecond = false
	n.k.RunFor(sim.Second)
	if len(p.client.inflight) != 0 {
		t.Fatalf("%d segments in flight after the retransmission", len(p.client.inflight))
	}
	runtime.GC()
	if spare() != 0 {
		t.Fatal("the tracker's spare capacity still points at an acknowledged frame")
	}
	if lent[1].Value() != nil {
		t.Fatal("the connection still references a segment the peer acknowledged")
	}
}
