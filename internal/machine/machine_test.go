package machine

import (
	"testing"

	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

func testMachine(k *sim.Kernel, cores int) *Machine {
	cfg := DefaultConfig("test", cores)
	return New(k, cfg)
}

func TestCoreIRQDeliveryWhenHalted(t *testing.T) {
	k := sim.NewKernel()
	m := testMachine(k, 1)
	c := m.Cores[0]
	var got []int
	c.SetDispatcher(func(vec int) { got = append(got, vec) })
	c.EnableInterrupts()
	c.Halt()
	k.After(10, func() { c.RaiseIRQ(33) })
	k.Run()
	if len(got) != 1 || got[0] != 33 {
		t.Fatalf("dispatched %v", got)
	}
	if c.Halted() {
		t.Fatal("core still halted after dispatch")
	}
}

func TestCoreIRQLatchedWhenMasked(t *testing.T) {
	k := sim.NewKernel()
	m := testMachine(k, 1)
	c := m.Cores[0]
	c.SetDispatcher(func(vec int) { t.Fatalf("unexpected dispatch of %d", vec) })
	c.DisableInterrupts()
	c.Halt()
	c.RaiseIRQ(40)
	c.RaiseIRQ(41)
	for _, want := range []int{40, 41} {
		if vec, ok := c.PopPending(); !ok || vec != want {
			t.Fatalf("PopPending = %d, %v; want %d, true", vec, ok, want)
		}
	}
	if vec, ok := c.PopPending(); ok {
		t.Fatalf("PopPending = %d after the last latched vector", vec)
	}
}

func TestCoreIRQLatchedWhenRunning(t *testing.T) {
	k := sim.NewKernel()
	m := testMachine(k, 1)
	c := m.Cores[0]
	c.SetDispatcher(func(vec int) { t.Fatal("dispatched while not halted") })
	c.EnableInterrupts()
	// Not halted: simulates a core mid-event with the brief enabled window.
	c.RaiseIRQ(50)
	if vec, ok := c.PopPending(); !ok || vec != 50 {
		t.Fatalf("PopPending = %d, %v; want 50, true", vec, ok)
	}
}

// Latched vectors pop in arrival order however raises and pops interleave,
// repeats included, and the FIFO keeps its backing array: a busy core that
// never drains it neither reorders nor grows it.
func TestCorePendingFIFOUnderInterleaving(t *testing.T) {
	k := sim.NewKernel()
	c := testMachine(k, 1).Cores[0]
	c.SetDispatcher(func(vec int) { t.Fatalf("unexpected dispatch of %d", vec) })
	rng := sim.NewRng(1)
	var model []int
	next, peak := 0, 0
	for i := 0; i < 10000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			vec := 32 + next%7
			next++
			c.RaiseIRQ(vec)
			model = append(model, vec)
			peak = max(peak, len(model))
			continue
		}
		vec, ok := c.PopPending()
		if !ok || vec != model[0] {
			t.Fatalf("step %d: PopPending = %d, %v; want %d, true", i, vec, ok, model[0])
		}
		model = model[1:]
		if cap(c.pending) > 4*peak+8 {
			t.Fatalf("step %d: the FIFO, never longer than %d, grew an array of %d", i, peak, cap(c.pending))
		}
	}
	for _, want := range model {
		if vec, ok := c.PopPending(); !ok || vec != want {
			t.Fatalf("draining: PopPending = %d, %v; want %d, true", vec, ok, want)
		}
	}
	if _, ok := c.PopPending(); ok {
		t.Fatal("PopPending found a vector after the FIFO drained")
	}
	if n := testing.AllocsPerRun(100, func() {
		c.RaiseIRQ(33)
		c.RaiseIRQ(34)
		c.PopPending()
		c.PopPending()
	}); n != 0 {
		t.Fatalf("raise and pop allocated %.0f objects, want 0", n)
	}
}

func TestNumaAssignment(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, Config{Name: "n", Cores: 4, NumaNodes: 2, GHz: 2.6})
	want := []int{0, 0, 1, 1}
	for i, c := range m.Cores {
		if c.Node != want[i] {
			t.Fatalf("core %d on node %d, want %d", i, c.Node, want[i])
		}
	}
}

func TestCycles(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, Config{Name: "n", Cores: 1, GHz: 2.0})
	if got := m.Cycles(2000); got != 1000 {
		t.Fatalf("2000 cycles at 2GHz = %v ns, want 1000", got)
	}
}

func frameOf(src, dst MAC, payload int, hash uint32) Frame {
	return frameIn(iobuf.New(14+payload), src, dst, payload, hash)
}

// frameIn writes the frame into b, an empty element - a pool's, in the
// tests that follow a sender's head element home.
func frameIn(b *iobuf.IOBuf, src, dst MAC, payload int, hash uint32) Frame {
	hdr := b.Append(14 + payload)
	copy(hdr[0:6], dst[:])
	copy(hdr[6:12], src[:])
	return Frame{Buf: b, Hash: hash}
}

// pooledFrame is a 114-byte frame as a stack sends one: a head element from
// heads, and behind it a view descriptor from views over bytes it does not
// own.
func pooledFrame(heads, views *iobuf.Pool, src, dst MAC) Frame {
	f := frameIn(heads.Get(114), src, dst, 50, 0)
	f.Buf.AppendChain(views.View(lentBytes[:]))
	return f
}

var lentBytes [50]byte

func TestLinkDelivery(t *testing.T) {
	k := sim.NewKernel()
	ma := testMachine(k, 1)
	mb := testMachine(k, 1)
	na := NewNIC(ma, MAC{1})
	nb := NewNIC(mb, MAC{2})
	NewLink(k, na, nb)

	f := frameOf(MAC{1}, MAC{2}, 100, 7)
	na.Transmit(f, 0)
	k.Run()
	if nb.RxFrames.N != 1 {
		t.Fatalf("rx frames = %d", nb.RxFrames.N)
	}
	if nb.Queues[0].Len() != 1 {
		t.Fatal("frame not queued")
	}
	got, ok := nb.Queues[0].Pop()
	if !ok || got.Len() != 114 {
		t.Fatalf("popped %v %v", got, ok)
	}
}

func TestLinkSerializationOrdering(t *testing.T) {
	k := sim.NewKernel()
	ma := testMachine(k, 1)
	mb := testMachine(k, 1)
	na := NewNIC(ma, MAC{1})
	nb := NewNIC(mb, MAC{2})
	l := NewLink(k, na, nb)

	// Two back-to-back large frames: second must arrive after first by at
	// least the serialization time.
	var arrivals []sim.Time
	nb.Queues[0].SetIRQ(mb.Cores[0], 60)
	mb.Cores[0].SetDispatcher(func(int) {
		arrivals = append(arrivals, k.Now())
		for {
			if _, ok := nb.Queues[0].Pop(); !ok {
				break
			}
		}
		mb.Cores[0].Halt()
	})
	mb.Cores[0].EnableInterrupts()
	mb.Cores[0].Halt()

	na.Transmit(frameOf(MAC{1}, MAC{2}, 9000, 1), 0)
	na.Transmit(frameOf(MAC{1}, MAC{2}, 9000, 1), 0)
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	ser := l.serialization(9014)
	if gap := arrivals[1] - arrivals[0]; gap < ser {
		t.Fatalf("gap %v < serialization %v: link did not serialize", gap, ser)
	}
}

func TestRSSQueueSelection(t *testing.T) {
	k := sim.NewKernel()
	ma := testMachine(k, 1)
	mb := testMachine(k, 4)
	na := NewNIC(ma, MAC{1})
	nb := NewNIC(mb, MAC{2})
	NewLink(k, na, nb)
	for h := uint32(0); h < 8; h++ {
		na.Transmit(frameOf(MAC{1}, MAC{2}, 64, h), 0)
	}
	k.Run()
	for q := 0; q < 4; q++ {
		if nb.Queues[q].Len() != 2 {
			t.Fatalf("queue %d has %d frames, want 2", q, nb.Queues[q].Len())
		}
	}
}

func TestQueueIRQMasking(t *testing.T) {
	k := sim.NewKernel()
	ma := testMachine(k, 1)
	mb := testMachine(k, 1)
	na := NewNIC(ma, MAC{1})
	nb := NewNIC(mb, MAC{2})
	NewLink(k, na, nb)

	fired := 0
	q := nb.Queues[0]
	q.SetIRQ(mb.Cores[0], 60)
	mb.Cores[0].SetDispatcher(func(int) { fired++; mb.Cores[0].Halt() })
	mb.Cores[0].EnableInterrupts()
	mb.Cores[0].Halt()
	q.DisableIRQ()

	na.Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
	k.Run()
	if fired != 0 {
		t.Fatal("masked queue raised an interrupt")
	}
	if q.Len() != 1 {
		t.Fatal("frame lost while masked")
	}
	// Re-enabling with frames queued must fire immediately.
	q.EnableIRQ()
	k.Run()
	if fired != 1 {
		t.Fatalf("EnableIRQ with backlog fired %d times, want 1", fired)
	}
}

func TestSwitchLearningAndFlood(t *testing.T) {
	k := sim.NewKernel()
	machines := make([]*Machine, 3)
	nics := make([]*NIC, 3)
	sw := NewSwitch(k)
	for i := range machines {
		machines[i] = testMachine(k, 1)
		nics[i] = NewNIC(machines[i], MAC{byte(i + 1)})
		sw.Connect(nics[i])
	}
	// Unknown destination: flood to all but sender.
	nics[0].Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
	k.Run()
	if nics[1].RxFrames.N != 1 || nics[2].RxFrames.N != 1 {
		t.Fatalf("flood delivered %d/%d", nics[1].RxFrames.N, nics[2].RxFrames.N)
	}
	// The switch has now learned MAC 1. Reply unicasts only to port 0.
	nics[1].Transmit(frameOf(MAC{2}, MAC{1}, 64, 0), 0)
	k.Run()
	if nics[0].RxFrames.N != 1 {
		t.Fatal("unicast to learned MAC not delivered")
	}
	if nics[2].RxFrames.N != 1 {
		t.Fatal("unicast flooded to unrelated port")
	}
	// Broadcast floods.
	nics[2].Transmit(frameOf(MAC{3}, Broadcast, 64, 0), 0)
	k.Run()
	if nics[0].RxFrames.N != 2 || nics[1].RxFrames.N != 2 {
		t.Fatal("broadcast not flooded")
	}
}

func TestNICDownDropsBothDirections(t *testing.T) {
	k := sim.NewKernel()
	ma := testMachine(k, 1)
	mb := testMachine(k, 1)
	na := NewNIC(ma, MAC{1})
	nb := NewNIC(mb, MAC{2})
	NewLink(k, na, nb)

	// Down NIC transmits nothing.
	nb.SetUp(false)
	if nb.Up() {
		t.Fatal("NIC reports up after SetUp(false)")
	}
	nb.Transmit(frameOf(MAC{2}, MAC{1}, 64, 0), 0)
	k.Run()
	if na.RxFrames.N != 0 {
		t.Fatal("frame escaped a down NIC")
	}
	// Down NIC receives nothing; the frame vanishes rather than queueing.
	na.Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
	k.Run()
	if nb.RxFrames.N != 0 || nb.Queues[0].Len() != 0 {
		t.Fatal("down NIC accepted a frame")
	}
	if nb.DroppedFrames.N != 2 {
		t.Fatalf("dropped %d frames, want 2", nb.DroppedFrames.N)
	}
	// Revived NIC passes frames again.
	nb.SetUp(true)
	na.Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
	k.Run()
	if nb.RxFrames.N != 1 {
		t.Fatal("revived NIC did not receive")
	}
}

func TestSwitchDropFn(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k)
	machines := make([]*Machine, 2)
	nics := make([]*NIC, 2)
	for i := range machines {
		machines[i] = testMachine(k, 1)
		nics[i] = NewNIC(machines[i], MAC{byte(i + 1)})
		sw.Connect(nics[i])
	}
	// Drop every other frame at ingress.
	sw.DropFn = func(index uint64, f Frame) bool { return index%2 == 1 }
	for i := 0; i < 10; i++ {
		nics[0].Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
	}
	k.Run()
	if nics[1].RxFrames.N != 5 {
		t.Fatalf("received %d frames through lossy switch, want 5", nics[1].RxFrames.N)
	}
}

func TestVirtualizationCostsAffectLatency(t *testing.T) {
	oneWay := func(virt bool) sim.Time {
		k := sim.NewKernel()
		cfgA := DefaultConfig("a", 1)
		cfgA.Virtualized = virt
		cfgB := DefaultConfig("b", 1)
		cfgB.Virtualized = virt
		ma, mb := New(k, cfgA), New(k, cfgB)
		na, nb := NewNIC(ma, MAC{1}), NewNIC(mb, MAC{2})
		NewLink(k, na, nb)
		var arrival sim.Time
		nb.Queues[0].SetIRQ(mb.Cores[0], 60)
		mb.Cores[0].SetDispatcher(func(int) { arrival = k.Now() })
		mb.Cores[0].EnableInterrupts()
		mb.Cores[0].Halt()
		na.Transmit(frameOf(MAC{1}, MAC{2}, 64, 0), 0)
		k.Run()
		return arrival
	}
	virt, native := oneWay(true), oneWay(false)
	if virt <= native {
		t.Fatalf("virtualized %v should exceed native %v", virt, native)
	}
}

// irqDrains binds every NIC's first queue to its machine's core 0 with a
// dispatcher that pops and frees whatever is queued, standing in for a
// driver.
func irqDrains(nics ...*NIC) {
	for _, n := range nics {
		q, core := n.Queues[0], n.M.Cores[0]
		q.SetIRQ(core, 60)
		core.SetDispatcher(func(int) {
			for {
				f, ok := q.Pop()
				if !ok {
					break
				}
				f.Buf.Free()
			}
			core.Halt()
		})
		core.EnableInterrupts()
		core.Halt()
	}
}

// A frame crosses Transmit -> port -> rx copy -> IRQ on one pooled record
// and is copied into one recycled receive buffer: with the pools warm a hop
// allocates nothing - through a link, through a switch, and through a
// switch flood - and when the frame has been popped and freed the sender's
// head element and view descriptor and every receive buffer are home.
func TestFrameFlightAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	la, lb := NewNIC(testMachine(k, 1), MAC{1}), NewNIC(testMachine(k, 1), MAC{2})
	NewLink(k, la, lb)
	sw := NewSwitch(k)
	nics := make([]*NIC, 3)
	for i := range nics {
		nics[i] = NewNIC(testMachine(k, 1), MAC{byte(i + 1)})
		sw.Connect(nics[i])
	}
	irqDrains(la, lb, nics[0], nics[1], nics[2])
	nics[1].Transmit(frameOf(MAC{2}, MAC{1}, 100, 0), 0) // the switch learns MAC 2
	k.Run()

	heads, views := iobuf.NewPool(128), iobuf.NewPool(0)
	for _, tc := range []struct {
		name   string
		from   *NIC
		dst    MAC
		copies int
	}{
		{"link", la, MAC{2}, 1},
		{"switch unicast", nics[0], MAC{2}, 1},
		{"switch flood", nics[0], Broadcast, 2},
	} {
		send := func() {
			tc.from.Transmit(pooledFrame(heads, views, MAC{1}, tc.dst), 0)
			k.Run()
		}
		send() // warm the pools and the rings
		if got := testing.AllocsPerRun(100, send); got != 0 {
			t.Errorf("%s: %.0f objects per frame, want 0", tc.name, got)
		}
		if len(tc.from.free) != tc.copies {
			t.Errorf("%s: sender's pool holds %d records, want %d", tc.name, len(tc.from.free), tc.copies)
		}
		if heads.Outstanding() != 0 || views.Outstanding() != 0 {
			t.Errorf("%s: %d head elements and %d view descriptors did not come home", tc.name, heads.Outstanding(), views.Outstanding())
		}
	}
	for _, n := range []*NIC{la, lb, nics[0], nics[1], nics[2]} {
		if n.RxBuffersOut() != 0 {
			t.Errorf("NIC %v: %d receive buffers out after every frame was freed", n.Mac, n.RxBuffersOut())
		}
	}
	if rx := nics[1].RxFrames.N + nics[2].RxFrames.N; rx == 0 || lb.RxFrames.N == 0 {
		t.Fatal("nothing was delivered; the counts above prove nothing")
	}
}

// Every way a frame can fail to arrive ends the flight's hold on its head
// element and the view descriptor behind it, and a frame left in a ring
// stays counted until it is popped and freed.
func TestDroppedFramesFreeTheirHead(t *testing.T) {
	k := sim.NewKernel()
	na, nb := NewNIC(testMachine(k, 1), MAC{1}), NewNIC(testMachine(k, 1), MAC{2})
	l := NewLink(k, na, nb)
	sw := NewSwitch(k)
	lone := NewNIC(testMachine(k, 1), MAC{3})
	sw.Connect(lone)
	heads, views := iobuf.NewPool(128), iobuf.NewPool(0)
	send := func(from *NIC) {
		from.Transmit(pooledFrame(heads, views, MAC{1}, MAC{2}), 0)
		k.Run()
	}
	check := func(what string) {
		t.Helper()
		if heads.Outstanding() != 0 || views.Outstanding() != 0 {
			t.Fatalf("%s: the head element or the view descriptor did not come home", what)
		}
	}
	na.SetUp(false)
	send(na)
	check("transmit on a down NIC")
	na.SetUp(true)
	nb.SetUp(false)
	send(na)
	check("arrival at a down NIC")
	nb.SetUp(true)
	l.DropFn = func(uint64, Frame) bool { return true }
	send(na)
	check("link DropFn")
	l.DropFn = nil
	send(lone)
	check("flood with no other port")
	sw.DropFn = func(uint64, Frame) bool { return true }
	send(lone)
	check("switch DropFn")
	if nb.RxBuffersOut() != 0 {
		t.Fatalf("%d receive buffers out before anything was delivered", nb.RxBuffersOut())
	}
	send(na)
	check("delivery")
	if nb.RxBuffersOut() != 1 || nb.Queues[0].Len() != 1 {
		t.Fatalf("%d receive buffers out with %d frames queued, want 1 and 1", nb.RxBuffersOut(), nb.Queues[0].Len())
	}
	f, _ := nb.Queues[0].Pop()
	f.Buf.Free()
	if nb.RxBuffersOut() != 0 {
		t.Fatal("the popped frame's buffer did not come home")
	}
}

// A one-way stream neither leaks records nor keeps allocating them: every
// record comes home to the sender's pool, which ends at the most frames it
// had in flight at once, and the receiver, which sent nothing, has none.
func TestOneWayStreamRecyclesFlightRecords(t *testing.T) {
	k := sim.NewKernel()
	na, nb := NewNIC(testMachine(k, 1), MAC{1}), NewNIC(testMachine(k, 1), MAC{2})
	l := NewLink(k, na, nb)
	l.DropFn = func(idx uint64, f Frame) bool { return idx%10 == 9 } // drops return records too
	irqDrains(nb)
	const burst = 4
	f := frameOf(MAC{1}, MAC{2}, 100, 0)
	for i := 0; i < 10000; i += burst {
		for j := 0; j < burst; j++ {
			na.Transmit(f, 0)
		}
		k.Run()
	}
	if len(na.free) != burst || len(nb.free) != 0 {
		t.Fatalf("pools hold %d (sender) and %d (receiver) records, want %d and 0", len(na.free), len(nb.free), burst)
	}
	if nb.RxFrames.N != 9000 {
		t.Fatalf("delivered %d frames, want 9000", nb.RxFrames.N)
	}
}

// The ring keeps its backing array while frames come and go and holds no
// popped frame's buffer.
func TestRxQueueKeepsItsRing(t *testing.T) {
	q := &RxQueue{}
	f := frameOf(MAC{1}, MAC{2}, 10, 0)
	step := func() {
		q.ring = append(q.ring, f, f, f)
		for want := 3; want > 0; want-- {
			if q.Len() != want {
				t.Fatalf("Len = %d, want %d", q.Len(), want)
			}
			q.Pop()
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("append+Pop allocated %.0f objects per round, want 0", n)
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatal("drained queue not empty")
	}
	for _, slot := range q.ring[:cap(q.ring)] {
		if slot.Buf != nil {
			t.Fatal("a popped frame is still reachable from the ring")
		}
	}
}
