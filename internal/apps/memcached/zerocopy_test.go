package memcached

import (
	"bytes"
	"runtime"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// bulkPair is a live server holding one 32KiB value under "bulk" and a
// 100-byte one under "small", and a connected client that collects what it
// is sent.
type bulkPair struct {
	*testbed.Pair
	value []byte
	conn  appnet.Conn
	rx    []byte
}

func newBulkPair(t *testing.T) *bulkPair {
	t.Helper()
	bp := &bulkPair{Pair: testbed.NewPair(testbed.EbbRT, 1, 2), value: make([]byte, 32<<10)}
	for i := range bp.value {
		bp.value[i] = byte(i * 7)
	}
	srv := NewServer(NewRCUStore(), 1)
	srv.Store.Set("bulk", &Entry{Value: bp.value})
	srv.Store.Set("small", &Entry{Value: bp.value[:100]})
	if err := srv.Serve(bp.Server); err != nil {
		t.Fatal(err)
	}
	bp.rx = make([]byte, 0, 2*len(bp.value))
	bp.conn = bp.dial(t)
	return bp
}

// dial opens a connection to the server whose replies land in bp.rx.
func (bp *bulkPair) dial(t *testing.T) appnet.Conn {
	t.Helper()
	var conn appnet.Conn
	bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		bp.Client.Dial(c, testbed.ServerIP, Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				bp.rx = payload.AppendTo(bp.rx)
			},
		}, func(c *event.Ctx, cn appnet.Conn) { conn = cn })
	})
	bp.K.RunFor(10 * sim.Millisecond)
	if conn == nil {
		t.Fatal("client did not connect")
	}
	return conn
}

// get fetches the value once and checks the answer byte for byte.
func (bp *bulkPair) get(t *testing.T, wait sim.Time) {
	t.Helper()
	bp.rx = bp.rx[:0]
	bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		bp.conn.Send(c, iobuf.Wrap(BuildGet([]byte("bulk"), 1)))
	})
	bp.K.RunFor(wait)
	hdrs, bodies := parseResponses(t, bp.rx)
	if len(hdrs) != 1 || hdrs[0].Status != StatusOK || !bytes.Equal(bodies[0][GetResponseExtrasLen:], bp.value) {
		t.Fatalf("GET of the bulk value: %d responses in %d bytes", len(hdrs), len(bp.rx))
	}
}

// The ownership rule end to end: a GET of a long stored value goes out as
// views of the store's own bytes - first transmission and retransmission
// alike - and serving it, losing it and resending it never writes to them.
func TestGetLendsStoredValueOverLossyLink(t *testing.T) {
	bp := newBulkPair(t)
	orig := append([]byte(nil), bp.value...)
	at := map[*byte]int{}
	for i := range bp.value {
		at[&bp.value[i]] = i
	}
	sent := map[int]int{} // value offset -> frames that carried it by reference
	dropped := 0
	bp.Link.DropFn = func(idx uint64, f machine.Frame) bool {
		lent := false
		for e := f.Buf.Next(); e != f.Buf; e = e.Next() {
			off, ok := at[&e.Data()[0]]
			if !ok {
				continue
			}
			if !bytes.Equal(e.Data(), orig[off:off+e.Length()]) {
				t.Errorf("frame %d carries the wrong bytes for value offset %d", idx, off)
			}
			sent[off]++
			lent = true
		}
		if lent && idx%5 == 0 {
			dropped++
			return true
		}
		return false
	}
	bp.get(t, 2*sim.Second)
	if len(sent) < len(bp.value)/1460 {
		t.Fatalf("%d segments carried the value by reference, want one per MSS", len(sent))
	}
	resent := 0
	for _, n := range sent {
		if n > 1 {
			resent++
		}
	}
	if dropped == 0 || resent == 0 {
		t.Fatalf("dropped %d frames, %d offsets seen twice: the retransmission path did not run", dropped, resent)
	}
	if !bytes.Equal(bp.value, orig) {
		t.Fatal("the stored value changed while it was lent out")
	}
}

// warmGets runs the GETs that bring a pair to its steady state: ARP,
// windows and buffers at their size after one, and the slots of the
// kernel's timing wheel after some 400. Each GET's retransmission timers,
// armed and cancelled per segment, land some way round the wheel from the
// last one's, and a slot grows its array the first time it holds that
// many: 10 ms apart, GETs bring every slot to that load only after a few
// hundred. Measured after one, a GET read 2,300-2,800 bytes, 14 to 18
// objects, and after 300 one in five still read about 2,200.
func (bp *bulkPair) warmGets(get func()) {
	for range 500 {
		get()
	}
}

// One physical copy per direction, into recycled buffers: a warm 32KiB GET
// allocates the client's request and the test's own bytes - 200 bytes,
// 0.01 times the value's size (424 while the server's response was a
// fresh slice behind fresh descriptors; 4,328 while a Ctx per event and a
// view descriptor per segment were allocated; 50,952 before the receive
// copy of every frame and a header element per frame sent were recycled;
// every layer used to copy the value, about six times over). Under half
// the value means no layer allocates per byte again.
func TestBulkGetByteBudget(t *testing.T) {
	bp := newBulkPair(t)
	bp.warmGets(func() { bp.get(t, 10*sim.Millisecond) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bp.get(t, 10*sim.Millisecond)
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(bp.value)/2); got >= limit {
		t.Fatalf("one %d-byte GET allocated %d bytes, want under %d", len(bp.value), got, limit)
	} else {
		t.Logf("one %d-byte GET allocated %d bytes (%.2fx)", len(bp.value), got, float64(got)/float64(len(bp.value)))
	}
}

// A text `get` lends the value as a binary GET does: a warm 32KiB one, on
// a text connection of its own, allocates under half the value's size in
// bytes (43,384 while the text reply was a flat slice the value was copied
// into).
func TestBulkTextGetByteBudget(t *testing.T) {
	bp := newBulkPair(t)
	conn := bp.dial(t)
	want := append(append([]byte("VALUE bulk 0 32768\r\n"), bp.value...), "\r\nEND\r\n"...)
	get := func() {
		bp.rx = bp.rx[:0]
		bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
			conn.Send(c, iobuf.Wrap([]byte("get bulk\r\n")))
		})
		bp.K.RunFor(10 * sim.Millisecond)
		if !bytes.Equal(bp.rx, want) {
			t.Fatalf("text get of the bulk value: %d bytes, want %d", len(bp.rx), len(want))
		}
	}
	bp.warmGets(get)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	get()
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(bp.value)/2); got >= limit {
		t.Fatalf("one %d-byte text get allocated %d bytes, want under %d", len(bp.value), got, limit)
	} else {
		t.Logf("one %d-byte text get allocated %d bytes (%.2fx)", len(bp.value), got, float64(got)/float64(len(bp.value)))
	}
}

// The object count of the paper's short path, held in tier-1: one warm
// 100-byte binary GET, end to end - request frame, response frame and the
// ACK, two event loops, both stacks, the server - allocates 4 objects (5
// while the server copied the request's key into a string; 6 while it
// wrote its response into a fresh slice behind a fresh descriptor; 13
// while each event allocated its Ctx; 23 before receive buffers and header
// elements were recycled; 49 before frames flew on pooled records and
// timers were pooled): the test's own request (closure, packet bytes,
// descriptor) and a fraction of one in the kernel's timing wheel, whose
// slots grow as it turns. The server's handler allocates none
// (TestServerObjectBudget).
// The limit is the measured count plus 2, so one buffer per frame, one
// closure per timer or one object per event coming back fails here, not
// only in the benchmark. Under iobufdebug each event's own Ctx is allowed
// for.
func TestSmallGetObjectBudget(t *testing.T) {
	limit := 4.0 + 2
	bp := newBulkPair(t)
	get := func() {
		bp.rx = bp.rx[:0]
		bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
			bp.conn.Send(c, iobuf.Wrap(BuildGet([]byte("small"), 1)))
		})
		bp.K.RunFor(sim.Millisecond)
	}
	get() // warm: pools, rings and queues at their size
	if event.CheckedCtx {
		dispatched := func() (n uint64) {
			for _, m := range append(bp.Client.Mgrs(), bp.Server.Mgrs()...) {
				n += m.Dispatched
			}
			return n
		}
		before := dispatched()
		get()
		limit += float64(dispatched() - before)
	}
	got := testing.AllocsPerRun(200, get)
	if hdrs, bodies := parseResponses(t, bp.rx); len(hdrs) != 1 || hdrs[0].Status != StatusOK ||
		!bytes.Equal(bodies[0][GetResponseExtrasLen:], bp.value[:100]) {
		t.Fatalf("GET of the small value: %d responses in %d bytes", len(hdrs), len(bp.rx))
	}
	if got > limit {
		t.Fatalf("one 100-byte GET allocated %.0f objects, want at most %.0f", got, limit)
	}
	t.Logf("one 100-byte GET allocated %.0f objects (limit %.0f)", got, limit)
}

// A 32KiB SET arrives as two dozen segments. The partial request is
// accumulated into a buffer reserved once from the announced length and
// kept by the connection, and the value is copied into chunks of the
// server's chunk pool, where the chunks of the value it overwrites go
// back. So a warm overwrite - after an insert and a first overwrite, whose
// chunks are taken before the old ones are freed - allocates the test's
// request, which the allocator rounds up to 40KiB, and no value: 1.29
// times the value (2.26 while every SET allocated the stored value; 2.35
// while the response was a fresh slice; 3.66 while the NIC's receive copy
// was allocated too), and not the re-copy of the whole tail on every
// segment (over eight times).
func TestBulkSetByteBudget(t *testing.T) {
	bp := newBulkPair(t)
	set := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bp.rx = bp.rx[:0]
		bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
			bp.conn.Send(c, iobuf.Wrap(BuildSet([]byte("bulk2"), bp.value, 0, 2)))
		})
		bp.K.RunFor(10 * sim.Millisecond)
		runtime.ReadMemStats(&m1)
		if hdrs, _ := parseResponses(t, bp.rx); len(hdrs) != 1 || hdrs[0].Status != StatusOK {
			t.Fatalf("SET of the bulk value: %d responses", len(hdrs))
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	set() // warm: the connection's reassembly buffer is at its size
	set() // and the value pool has the element the next overwrite frees
	if got, limit := set(), uint64(3*len(bp.value)/2); got >= limit {
		t.Fatalf("one %d-byte SET allocated %d bytes, want under %d", len(bp.value), got, limit)
	} else {
		t.Logf("one %d-byte SET allocated %d bytes (%.2fx)", len(bp.value), got, float64(got)/float64(len(bp.value)))
	}
}
