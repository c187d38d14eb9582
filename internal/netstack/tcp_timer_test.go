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

// An ACK that races a latched RTO leaves one timer, not two. A timer whose
// time has come while the core was busy is latched behind VecTimer; an
// interrupt latched earlier handles an ACK first. processAck's cancelRTO
// must cancel the latched timer, so that its armRTO starts the only one:
// when a latched timer could not be cancelled, its handler ran anyway,
// cleared rtoTimer - orphaning the timer armRTO had just started -
// retransmitted and armed a third, and from then on the connection had two
// live RTO timers, the retransmission backoff puts two timeouts away
// arriving after one.
func TestRTOCancelledAfterLatchLeavesNoOrphan(t *testing.T) {
	n := newTestNet(t, 1, 1)
	p := establishTcp(t, n, ConnHandler{}, ConnHandler{}, nil)
	n.k.RunFor(sim.Second)
	if p.client == nil || p.client.State() != "Established" {
		t.Fatal("handshake did not complete")
	}
	pcb, mgr := p.client, n.a.Mgrs[0]
	n.link.DropFn = func(uint64, machine.Frame) bool { return true } // the segment stays in flight
	var expiry, rto sim.Time
	// What processAck does for an ACK that leaves data outstanding.
	ackVec := mgr.AllocateVector(func(*event.Ctx) {
		if n.k.Now() <= expiry || pcb.Retransmits != 0 {
			t.Errorf("the ACK ran at %v, %d retransmits; want after the expiry at %v, before the timer's handler", n.k.Now(), pcb.Retransmits, expiry)
		}
		pcb.cancelRTO()
		pcb.armRTO()
	})
	n.spawnA(func(c *event.Ctx) {
		rto = pcb.backoff(pcb.rtoBackoff)
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
	if pcb.Retransmits != 0 {
		t.Fatalf("the latched RTO handler ran after cancelRTO: %d retransmits", pcb.Retransmits)
	}
	// The one timer, armed by the ACK just before expiry, fires at about
	// expiry+rto; backoff puts the next at about expiry+3*rto. An orphan would
	// have retransmitted in between.
	n.k.RunUntil(expiry + rto + rto/2)
	if pcb.Retransmits != 1 {
		t.Fatalf("%d retransmits by 1.5 timeouts after the expiry, want exactly 1", pcb.Retransmits)
	}
	n.k.RunUntil(expiry + 2*rto + rto/2)
	if pcb.Retransmits != 1 {
		t.Fatalf("%d retransmits by 2.5 timeouts after the expiry, want still 1: a second RTO timer is live", pcb.Retransmits)
	}
	n.k.RunUntil(expiry + 3*rto + rto/2)
	if pcb.Retransmits != 2 {
		t.Fatalf("%d retransmits by 3.5 timeouts after the expiry, want 2", pcb.Retransmits)
	}
}
