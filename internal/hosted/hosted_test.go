package hosted

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

func TestMessengerRoundTrip(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()

	var atFrontend []byte
	var replied []byte
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		atFrontend = payload
		sys.Frontend().Messenger.Send(c, src, id, append([]byte("re:"), payload...))
	})
	native.Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		replied = payload
	})
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("hello frontend"))
	})
	sys.K.RunUntil(2 * sim.Second)
	if string(atFrontend) != "hello frontend" {
		t.Fatalf("frontend got %q", atFrontend)
	}
	if string(replied) != "re:hello frontend" {
		t.Fatalf("native got %q", replied)
	}
}

func TestMessengerLocalDelivery(t *testing.T) {
	sys := NewSystem()
	id := sys.AllocateEbbId()
	got := ""
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = string(payload)
	})
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, 0, id, []byte("local"))
	})
	sys.K.RunUntil(100 * sim.Millisecond)
	if got != "local" {
		t.Fatalf("got %q", got)
	}
}

func TestMessengerManyMessagesOrdered(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()
	var got []byte
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, payload...)
	})
	native.Spawn(func(c *event.Ctx) {
		for i := 0; i < 50; i++ {
			native.Messenger.Send(c, 0, id, []byte{byte(i)})
		}
	})
	sys.K.RunUntil(2 * sim.Second)
	if len(got) != 50 {
		t.Fatalf("received %d of 50", len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got[:10])
		}
	}
}

func TestNodeKillPartitionsAndReviveResumes(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()

	var got []string
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, string(payload))
	})
	// Establish the messenger connection while the node is healthy.
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("before"))
	})
	sys.K.RunUntil(1 * sim.Second)
	if len(got) != 1 || got[0] != "before" {
		t.Fatalf("pre-kill message lost: %v", got)
	}

	// Kill the node: messages sent while dead must not arrive.
	native.Kill()
	if native.Alive() {
		t.Fatal("killed node reports alive")
	}
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("during"))
	})
	sys.K.RunUntil(sys.K.Now() + 50*sim.Millisecond)
	if len(got) != 1 {
		t.Fatalf("message escaped a killed node: %v", got)
	}

	// Revive: TCP retransmission recovers the partition-era message.
	native.Revive()
	if !native.Alive() {
		t.Fatal("revived node reports dead")
	}
	sys.K.RunUntil(sys.K.Now() + 2*sim.Second)
	if len(got) != 2 || got[1] != "during" {
		t.Fatalf("retransmission did not recover message: %v", got)
	}
}

func TestMessengerRedialsAfterFailedDial(t *testing.T) {
	// A dial to a dead node must not wedge the destination: once the
	// failed dial tears down, a later Send redials and succeeds.
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()
	var got []string
	native.Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, string(payload))
	})

	native.Kill()
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, native.Id, id, []byte("lost"))
	})
	// Long enough for the SYN retransmissions to give up (RTO 200ms with
	// exponential backoff through 9 doublings is ~205s of virtual time).
	sys.K.RunUntil(250 * sim.Second)
	native.Revive()
	got = got[:0] // only the post-revival send matters
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, native.Id, id, []byte("after"))
	})
	sys.K.RunUntil(sys.K.Now() + 2*sim.Second)
	if len(got) != 1 || got[0] != "after" {
		t.Fatalf("messenger wedged after failed dial: %v", got)
	}
}

// TestMessengerCapsAnnouncedLength: a header announcing a 2 GiB message
// reserves no more than the cap while its bytes trickle in, and the next
// well-formed message, on a fresh connection, is delivered.
func TestMessengerCapsAnnouncedLength(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()
	var got []string
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, string(payload))
	})
	msg := func(n uint32, body string) []byte {
		b := make([]byte, msgHeaderLen, msgHeaderLen+len(body))
		binary.BigEndian.PutUint32(b[0:4], uint32(native.Id))
		binary.BigEndian.PutUint32(b[4:8], uint32(id))
		binary.BigEndian.PutUint32(b[8:12], n)
		return append(b, body...)
	}
	raw := func(data []byte) {
		native.Spawn(func(c *event.Ctx) {
			native.Runtime.Dial(c, sys.Frontend().IP(), messengerPort, appnet.Callbacks{},
				func(c *event.Ctx, conn appnet.Conn) { conn.Send(c, iobuf.Wrap(data)) })
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw(msg(1<<31, "the first bytes of a message that never ends"))
	sys.K.RunUntil(100 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a 2 GiB announcement allocated %d MiB", grew>>20)
	}
	raw(msg(5, "hello"))
	sys.K.RunUntil(200 * sim.Millisecond)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered %q, want the well-formed message alone", got)
	}
}

func TestEbbIdAllocationSharedNamespace(t *testing.T) {
	sys := NewSystem()
	sys.AddNativeNode(1)
	a := sys.AllocateEbbId()
	b := sys.AllocateEbbId()
	if a == b {
		t.Fatal("duplicate system-wide ids")
	}
	// Ids allocated by the system must not collide with per-domain ones.
	for _, n := range sys.Nodes {
		if local := n.Domain.AllocateId(); local <= b {
			t.Fatalf("node %d local id %d collides with system ids", n.Id, local)
		}
	}
}

func TestFileSystemOffload(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)

	var readBack []byte
	var size uint64
	var names []string
	var readErr error
	native.Spawn(func(c *event.Ctx) {
		// Write via the native rep: function-ships to the frontend.
		fs.Write(c, native, "/etc/config", []byte("port=11211")).OnDone(func(r future.Result[future.Unit]) {
			if _, err := r.Get(); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			// The event that wrote has ended: the next calls re-enter.
			native.Spawn(func(c *event.Ctx) {
				fs.Read(c, native, "/etc/config").OnDone(func(r future.Result[[]byte]) {
					readBack, readErr = r.Get()
				})
				fs.Stat(c, native, "/etc/config").OnDone(func(r future.Result[uint64]) {
					size, _ = r.Get()
				})
				fs.List(c, native).OnDone(func(r future.Result[[]string]) {
					names, _ = r.Get()
				})
			})
		})
	})
	sys.K.RunUntil(5 * sim.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if string(readBack) != "port=11211" {
		t.Fatalf("read back %q", readBack)
	}
	if size != 10 {
		t.Fatalf("stat size %d", size)
	}
	if len(names) != 1 || names[0] != "/etc/config" {
		t.Fatalf("list %v", names)
	}
}

// A FileSystem call made from a continuation - the read that follows a
// write once the write is answered - runs in an event of its own, entered
// through Spawn: the request is billed to that event and leaves at its
// offset. (The event that made the first call has ended by then; under
// iobufdebug, using its Ctx panics.) A second read from a plain event
// measures the device path from an event's offset to the switch.
func TestFileSystemContinuationBillsItsOwnEvent(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)
	mac := native.Machine.NICs[0].Mac
	var sent []sim.Time
	sys.Switch.DropFn = func(_ uint64, f machine.Frame) bool {
		if b := f.Buf.Data(); len(b) >= 12 && bytes.Equal(b[6:12], mac[:]) {
			sent = append(sent, sys.K.Now())
		}
		return false
	}
	departure := func(offset sim.Time) sim.Time {
		for _, at := range sent {
			if at >= offset {
				return at - offset
			}
		}
		return -1
	}
	var readAt, refAt sim.Time
	var got []byte
	native.Spawn(func(c *event.Ctx) {
		fs.Write(c, native, "/a", []byte("x")).OnDone(func(future.Result[future.Unit]) {
			native.Spawn(func(c *event.Ctx) {
				c.Charge(20 * sim.Microsecond)
				fs.Read(c, native, "/a").OnDone(func(r future.Result[[]byte]) { got, _ = r.Get() })
				readAt = c.Now() + c.Charged()
			})
		})
	})
	sys.K.RunUntil(sim.Second)
	native.Spawn(func(c *event.Ctx) {
		c.Charge(20 * sim.Microsecond)
		fs.Read(c, native, "/a")
		refAt = c.Now() + c.Charged()
	})
	sys.K.RunUntil(2 * sim.Second)
	if string(got) != "x" || readAt == 0 || refAt == 0 {
		t.Fatalf("read %q, sent at offsets %v and %v", got, readAt, refAt)
	}
	if path, ref := departure(readAt), departure(refAt); path != ref || ref <= 0 {
		t.Fatalf("the read left %v after its event's offset, a plain call's %v after", path, ref)
	}
}

func TestFileSystemReadMissing(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)
	var err error
	done := false
	native.Spawn(func(c *event.Ctx) {
		fs.Read(c, native, "/does/not/exist").OnDone(func(r future.Result[[]byte]) {
			_, err = r.Get()
			done = true
		})
	})
	sys.K.RunUntil(5 * sim.Second)
	if !done || err == nil {
		t.Fatalf("missing file should error: done=%v err=%v", done, err)
	}
}

func TestFileSystemFrontendLocal(t *testing.T) {
	sys := NewSystem()
	fs := NewFileSystem(sys)
	front := sys.Frontend()
	var got []byte
	front.Spawn(func(c *event.Ctx) {
		fs.Write(c, front, "/a", []byte("x")).OnDone(func(future.Result[future.Unit]) {
			fs.Read(c, front, "/a").OnDone(func(r future.Result[[]byte]) {
				got = r.Must()
			})
		})
	})
	sys.K.RunUntil(1 * sim.Second)
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestBlockingOffloadFromEvent(t *testing.T) {
	// The paper's libuv port uses save/restore to give blocking semantics:
	// a native event blocks on a filesystem future.
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)
	var got []byte
	var err error
	done := false
	native.Spawn(func(c *event.Ctx) {
		if _, werr := fs.Write(c, native, "/boot.cfg", []byte("cores=4")).Block(c); werr != nil {
			t.Errorf("write: %v", werr)
		}
		got, err = fs.Read(c, native, "/boot.cfg").Block(c)
		done = true
	})
	sys.K.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("blocked event never resumed")
	}
	if err != nil || string(got) != "cores=4" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestDomainKindsPerNode(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(2)
	// The frontend domain is hash-backed, natives array-backed; both must
	// serve the same Ebb API.
	for _, n := range []*Node{sys.Frontend(), native} {
		ref := core.Allocate(n.Domain, func(corei int) *struct{ v int } {
			return &struct{ v int }{v: corei}
		})
		if ref.Get(0).v != 0 {
			t.Fatal("rep wrong")
		}
	}
}
