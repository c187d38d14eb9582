package gpos_test

import (
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/gpos"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func TestProfiles(t *testing.T) {
	lin := gpos.LinuxConfig()
	osv := gpos.OSvConfig()
	// OSv's defining properties vs Linux: no user/kernel copy boundary,
	// cheap syscalls, coarse locking.
	if osv.CopyPerByte >= lin.CopyPerByte {
		t.Fatal("OSv should not pay the user/kernel copy")
	}
	if osv.Syscall >= lin.Syscall {
		t.Fatal("OSv syscalls should be cheap (single address space)")
	}
	if osv.LockPerPacketPerCore == 0 {
		t.Fatal("OSv profile should model coarse locking")
	}
	if lin.LockPerPacketPerCore != 0 {
		t.Fatal("Linux profile should not pay per-core lock scaling")
	}
}

func TestSchedulerTicksConsumeCPU(t *testing.T) {
	// A GPOS machine left idle still burns CPU on timer ticks; an EbbRT
	// machine is perfectly quiescent (paper §4.3: "prevents unnecessary
	// timer interrupts").
	pair := testbed.NewPair(testbed.LinuxVM, 1, 1)
	before := pair.K.Fired()
	pair.K.RunUntil(100 * sim.Millisecond)
	gposEvents := pair.K.Fired() - before

	ebb := testbed.NewPair(testbed.EbbRT, 1, 1)
	before = ebb.K.Fired()
	ebb.K.RunUntil(100 * sim.Millisecond)
	ebbEvents := ebb.K.Fired() - before

	// ~100 ticks per core per 100ms on the GPOS side (both machines of
	// the pair have cores; the client is native in both cases).
	if gposEvents < 100 {
		t.Fatalf("GPOS fired only %d events in 100ms idle", gposEvents)
	}
	if ebbEvents >= gposEvents {
		t.Fatalf("EbbRT idle events (%d) should be far below GPOS (%d)", ebbEvents, gposEvents)
	}
}

func TestOSvSingleQueueTopology(t *testing.T) {
	pair := testbed.NewPair(testbed.OSv, 4, 4)
	rtm, ok := pair.Server.(*gpos.Runtime)
	if !ok {
		t.Fatal("OSv server is not a GPOS runtime")
	}
	if got := len(rtm.Itf.NIC.Queues); got != 1 {
		t.Fatalf("OSv NIC has %d queues, want 1 (no multiqueue support)", got)
	}
	ebb := testbed.NewPair(testbed.EbbRT, 4, 4)
	if _, ok := ebb.Server.(*appnet.Native); !ok {
		t.Fatalf("EbbRT server is %T, not the native runtime", ebb.Server)
	}
}

func TestLinuxNativeUnvirtualized(t *testing.T) {
	pair := testbed.NewPair(testbed.LinuxNative, 1, 1)
	rtm := pair.Server.(*gpos.Runtime)
	if rtm.Stack.M.Cfg.Virtualized {
		t.Fatal("Linux native machine should not be virtualized")
	}
	vm := testbed.NewPair(testbed.LinuxVM, 1, 1)
	if !vm.Server.(*gpos.Runtime).Stack.M.Cfg.Virtualized {
		t.Fatal("Linux VM machine should be virtualized")
	}
}

// A socket torn down while its task's wakeup is pending frees what its
// receive buffer held: the payload elements the softirq copied into come
// home although read() never runs.
func TestClosedSocketReturnsItsReceiveElements(t *testing.T) {
	pair := testbed.NewPair(testbed.LinuxVM, 1, 1)
	var pool *iobuf.Pool
	heldAtClose, read := -1, false
	if err := pair.Server.Listen(7, func(conn appnet.Conn) appnet.Callbacks {
		pool, _ = appnet.PoolsOf(conn)
		return appnet.Callbacks{
			OnData:  func(*event.Ctx, appnet.Conn, *iobuf.IOBuf) { read = true },
			OnClose: func(*event.Ctx, appnet.Conn, error) { heldAtClose = pool.Outstanding() },
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The client sends and resets at once: the RST lands before the
	// server's task wakes to read.
	client := pair.Client.(*appnet.Native)
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		_, err := client.Itf.ConnectTcp(c, testbed.ServerIP, 7, netstack.ConnHandler{
			OnConnected: func(c *event.Ctx, pcb *netstack.TcpPcb) {
				if err := pcb.Send(c, iobuf.FromBytes([]byte("never read"))); err != nil {
					t.Error(err)
				}
				pcb.Abort(c)
			},
		})
		if err != nil {
			t.Error(err)
		}
	})
	pair.K.RunUntil(100 * sim.Millisecond)
	if pool == nil || heldAtClose != 1 || read {
		t.Fatalf("the reset did not land with a wakeup pending: accepted %v, %d elements held at close, read %v", pool != nil, heldAtClose, read)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("%d payload elements out after the socket closed", pool.Outstanding())
	}
}
