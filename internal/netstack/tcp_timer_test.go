package netstack

import (
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// armRTO runs per data segment and armPersist per zero-window ACK: once the
// connection has bound its handlers and the manager's timer pool is warm,
// arming and cancelling allocate nothing.
func TestArmRTOAllocatesNothing(t *testing.T) {
	n := newTestNet(t, 1, 1)
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunFor(sim.Second)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	pcb := p.client
	cycle := func() {
		pcb.armRTO()
		pcb.armPersist()
		pcb.cancelRTO()
		pcb.cancelPersist()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("arming and cancelling RTO and persist timers allocated %.0f objects, want 0", got)
	}
	if pcb.rtoTimer != (event.Timer{}) || n.k.Pending() != 0 {
		t.Fatalf("timers left armed: %d kernel events pending", n.k.Pending())
	}
}

// Characterises a defect, so that the PR that fixes it flips this test
// knowingly (ROADMAP item 6c). A timer whose time has come is latched
// behind VecTimer and can no longer be cancelled. If the core was busy at
// that instant and an interrupt latched earlier handles an ACK first,
// processAck's cancelRTO cancels nothing and its armRTO starts a second
// timer; the latched handler then runs anyway, clears rtoTimer - orphaning
// that second timer - retransmits, and arms a third. From then on the
// connection has two live RTO timers: the retransmission that backoff puts
// two timeouts away arrives after one.
func TestRTOCancelledAfterLatchStillRuns(t *testing.T) {
	n := newTestNet(t, 1, 1)
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunFor(sim.Second)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	pcb, mgr := p.client, n.a.Mgrs[0]
	n.link.DropFn = func(uint64, machine.Frame) bool { return true } // the segment stays in flight
	// What processAck does for an ACK that leaves data outstanding.
	ackVec := mgr.AllocateVector(func(*event.Ctx) {
		if pcb.rtoTimer.Cancel() {
			t.Error("the latched timer was still cancellable; the scenario did not form")
		}
		pcb.cancelRTO()
		pcb.armRTO()
	})
	var expiry, rto sim.Time
	n.spawnA(func(c *event.Ctx) {
		rto = pcb.rtoInterval()
		expiry = c.Now() + rto
		if err := pcb.Send(c, iobuf.Wrap([]byte{1})); err != nil {
			t.Errorf("send: %v", err)
		}
		// The core is busy from 10us before the timer's expiry to 40us after
		// it, and the "ACK" interrupt is latched 1us before: ahead of VecTimer.
		n.k.At(expiry-10*sim.Microsecond, func() { mgr.Spawn(func(c *event.Ctx) { c.Charge(50 * sim.Microsecond) }) })
		n.k.At(expiry-sim.Microsecond, func() { mgr.Core().RaiseIRQ(ackVec) })
	})
	n.k.RunFor(100 * sim.Microsecond)
	if expiry == 0 || expiry < n.k.Now()+100*sim.Microsecond || pcb.Retransmits != 0 {
		t.Fatalf("after the send: %d retransmits, expiry %v, now %v", pcb.Retransmits, expiry, n.k.Now())
	}
	n.k.RunUntil(expiry + rto/2)
	if pcb.Retransmits != 1 {
		t.Fatalf("the latched RTO handler ran %d times after cancelRTO, want 1 (it is past cancelling)", pcb.Retransmits)
	}
	// One timer would fire next at expiry+2*rto (backoff). The orphan,
	// armed before the backoff, fires at expiry+rto.
	n.k.RunUntil(expiry + rto + rto/2)
	if pcb.Retransmits != 2 {
		t.Fatalf("%d retransmits by 1.5 timeouts after the first, want 2: the orphaned second timer (item 6c) is gone - if that is the fix, expect 1 here", pcb.Retransmits)
	}
}
