package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// The traced run looks at the program from outside: the benchmark wraps
// the interfaces it hands to the program (appnet.Runtime, Conn and
// Callbacks; memcached.Store) and its own calls into it, and records one
// span per call. Nothing inside the program is instrumented, and no
// wrapper charges virtual time, so a traced run's virtual results are
// the plain run's.

type spanKind uint8

const (
	spLoadGen       spanKind = iota // the benchmark's own handlers
	spClusterClient                 // calls into cluster.Client and its OnData
	spTxClient                      // Conn.Send on the client machine
	spTxServer                      // Conn.Send on the server
	spHandler                       // the server's OnData
	spStore                         // memcached.Store methods
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"load.gen", "cluster.client", "netstack.tx_client", "netstack.tx_server", "memcached.handler", "memcached.store",
}

// span is one call: what it was, who caused it, when on both clocks.
type span struct {
	kind   spanKind
	parent int32 // index of the enclosing span, -1 at top level
	op     int32 // arrival id, -1 when the wrapper cannot know it
	w0, w1 int64 // host ns since the tracer was made
	v0, v1 int64 // virtual ns
}

// vsegKind is one virtual stretch of an arrival's latency.
type vsegKind int

const (
	vsQueue   vsegKind = iota // due -> first send (pair); due -> call into the client (cluster)
	vsClient                  // cluster: call -> first send, batch-queue wait included
	vsReqNet                  // first send -> the server first touched the request
	vsServer                  // -> the server answered (pair) / last touched it before any answer arrived (cluster)
	vsRespNet                 // -> first response bytes reached the client
	vsFold                    // -> callback: later segments, multiget stragglers, quorum wait
	nVsegs
)

var vsegNames = [nVsegs]string{"queue", "client", "req_net", "server", "resp_net", "fold"}

type tracer struct {
	k      *sim.Kernel
	t0     time.Time
	on     bool // recording: every other slice of the measured window
	spans  []span
	stack  []int32
	broken int // span ends that did not match the innermost open span

	// Attribution. cur is the arrival whose submit handler is running.
	// byID finds an arrival by the opaque the benchmark's own client
	// sent (pair); byKey finds the oldest in-flight arrival naming a key
	// (cluster, where the client picks opaques).
	cur     *arrival
	byID    map[uint32]*arrival
	byKey   map[string][]*arrival
	keyed   bool
	keyStr  []string
	vseg    [nVsegs][]int64
	badSums int // arrivals whose segments did not sum to their latency
}

func newTracer(k *sim.Kernel, pop *population, keyed bool) *tracer {
	t := &tracer{k: k, t0: time.Now(), keyed: keyed}
	if !keyed {
		t.byID = map[uint32]*arrival{}
	} else {
		t.byKey = map[string][]*arrival{}
		t.keyStr = make([]string, len(pop.keys))
		for i, key := range pop.keys {
			t.keyStr[i] = string(key)
		}
	}
	return t
}

func (t *tracer) virt(c *event.Ctx) int64 {
	if c != nil {
		return int64(vnow(c))
	}
	return int64(t.k.Now())
}

// begin opens a span and returns its index, or -1 when not recording.
// op < 0 inherits the enclosing span's arrival.
func (t *tracer) begin(kind spanKind, c *event.Ctx, op int32) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		if op < 0 {
			op = t.spans[parent].op
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: parent, op: op, v0: t.virt(c), w0: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32, c *event.Ctx) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.w1 = int64(time.Since(t.t0))
	s.v1 = t.virt(c)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	} else {
		t.broken++
	}
}

// track and untrack bracket an arrival's life for attribution.
func (t *tracer) track(a *arrival) {
	if t == nil || !t.on {
		return
	}
	a.tracked = true
	if !t.keyed {
		t.byID[a.id] = a
		return
	}
	for _, k := range a.keys {
		s := t.keyStr[k]
		t.byKey[s] = append(t.byKey[s], a)
	}
}

func (t *tracer) untrack(a *arrival) {
	if !a.tracked {
		return
	}
	if !t.keyed {
		delete(t.byID, a.id)
		return
	}
	for _, k := range a.keys {
		s := t.keyStr[k]
		list := t.byKey[s]
		for i, b := range list {
			if b == a {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(t.byKey, s)
		} else {
			t.byKey[s] = list
		}
	}
}

func stamp(at *sim.Time, now sim.Time) {
	if *at == 0 {
		*at = now
	}
}

// touched notes that a backend's store was asked about key (cluster).
func (t *tracer) touched(key string) {
	if !t.keyed || !t.on {
		return
	}
	list := t.byKey[key]
	if len(list) == 0 {
		return
	}
	a, now := list[0], t.k.Now()
	stamp(&a.srv0, now)
	if a.resp == 0 {
		a.srv1 = now
	}
}

// segments cuts a completed arrival's latency into its virtual
// stretches. An instant the wrappers did not see collapses onto the one
// before it and every instant is held inside [due, done], so the
// stretches always sum to the latency. An arrival that began or ended
// outside a recorded slice was seen only in part and is left out.
func (t *tracer) segments(a *arrival, done sim.Time) {
	if !a.tracked || !t.on {
		return
	}
	at := [nVsegs + 1]sim.Time{a.due, a.call, a.send, a.srv0, a.srv1, a.resp, done}
	var sum sim.Time
	for i := 1; i <= int(nVsegs); i++ {
		at[i] = min(max(at[i], at[i-1]), done)
		d := at[i] - at[i-1]
		t.vseg[i-1] = append(t.vseg[i-1], int64(d))
		sum += d
	}
	if sum != done-a.due {
		t.badSums++
	}
}

// selfTimes reports, per span kind, the host time spent in spans of that
// kind and not in their children, and the number of spans.
func (t *tracer) selfTimes() (self [nSpanKinds]int64, calls [nSpanKinds]int64) {
	own := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.w1 - s.w0
		own[i] += d
		if s.parent >= 0 {
			own[s.parent] -= d
		}
	}
	for i := range t.spans {
		self[t.spans[i].kind] += own[i]
		calls[t.spans[i].kind]++
	}
	return self, calls
}

// write dumps every span as one CSV line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("span,name,parent,op,wall_start_ns,wall_end_ns,virt_start_ns,virt_end_ns\n")
	var line []byte
	for i := range t.spans {
		s := &t.spans[i]
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = append(line, spanNames[s.kind]...)
		for _, v := range [...]int64{int64(s.parent), int64(s.op), s.w0, s.w1, s.v0, s.v1} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRuntime wraps the appnet.Runtime a program is given. On the
// pair it is the server's runtime (serverSide), on the cluster the
// hosted frontend's, under the client library.
type tracedRuntime struct {
	appnet.Runtime
	t          *tracer
	serverSide bool
}

// unwrapRuntime returns the runtime the benchmark wrapped, if it did.
func unwrapRuntime(rt appnet.Runtime) appnet.Runtime {
	if w, ok := rt.(*tracedRuntime); ok {
		return w.Runtime
	}
	return rt
}

func (r *tracedRuntime) Listen(port uint16, accept func(conn appnet.Conn) appnet.Callbacks) error {
	return r.Runtime.Listen(port, func(conn appnet.Conn) appnet.Callbacks {
		tc := &tracedConn{Conn: conn, rt: r}
		return tc.wrap(accept(tc))
	})
}

func (r *tracedRuntime) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb appnet.Callbacks, onConnect func(c *event.Ctx, conn appnet.Conn)) {
	tc := &tracedConn{rt: r}
	r.Runtime.Dial(c, ip, port, tc.wrap(cb), func(c *event.Ctx, conn appnet.Conn) {
		tc.Conn = conn
		if onConnect != nil {
			onConnect(c, tc)
		}
	})
}

// tracedConn wraps one connection: a span around every Send and every
// OnData, and a scanner on each direction's byte stream to learn which
// arrival the bytes belong to.
type tracedConn struct {
	appnet.Conn
	rt      *tracedRuntime
	tx, rx  frameScanner
	pending map[uint32]*arrival // cluster: the client's opaque -> arrival
}

func (tc *tracedConn) wrap(cb appnet.Callbacks) appnet.Callbacks {
	t := tc.rt.t
	var out appnet.Callbacks
	if cb.OnClose != nil {
		out.OnClose = func(c *event.Ctx, _ appnet.Conn, err error) { cb.OnClose(c, tc, err) }
	}
	if cb.OnData != nil {
		kind := spClusterClient
		if tc.rt.serverSide {
			kind = spHandler
		}
		out.OnData = func(c *event.Ctx, _ appnet.Conn, payload *iobuf.IOBuf) {
			tc.scan(&tc.rx, c, payload, tc.received)
			sp := t.begin(kind, c, -1)
			cb.OnData(c, tc, payload)
			t.end(sp, c)
		}
	}
	return out
}

func (tc *tracedConn) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	t := tc.rt.t
	tc.scan(&tc.tx, c, payload, tc.sent)
	kind := spTxClient
	if tc.rt.serverSide {
		kind = spTxServer
	}
	sp := t.begin(kind, c, -1)
	tc.Conn.Send(c, payload)
	t.end(sp, c)
}

// scan runs whether or not the tracer is recording: a scanner that
// missed bytes would lose the frame boundaries for good.
func (tc *tracedConn) scan(s *frameScanner, c *event.Ctx, payload *iobuf.IOBuf, onFrame func(now sim.Time, h frameHdr)) {
	now := vnow(c)
	payload.ForEach(func(b *iobuf.IOBuf) {
		s.feed(b.Data(), func(h frameHdr) { onFrame(now, h) })
	})
}

// sent sees a frame leave through Send: a response on the server, a
// request under the cluster client.
func (tc *tracedConn) sent(now sim.Time, h frameHdr) {
	t := tc.rt.t
	if tc.rt.serverSide {
		if a := t.byID[h.opaque]; a != nil {
			stamp(&a.srv1, now)
		}
		return
	}
	if a := t.cur; a != nil && a.tracked {
		stamp(&a.send, now)
		if tc.pending == nil {
			tc.pending = map[uint32]*arrival{}
		}
		tc.pending[h.opaque] = a
	}
}

// received sees a frame header arrive at OnData: a request on the
// server, a response under the cluster client.
func (tc *tracedConn) received(now sim.Time, h frameHdr) {
	t := tc.rt.t
	if tc.rt.serverSide {
		if a := t.byID[h.opaque]; a != nil {
			stamp(&a.srv0, now)
		}
		return
	}
	if a := tc.pending[h.opaque]; a != nil {
		delete(tc.pending, h.opaque)
		if !a.done {
			stamp(&a.resp, now)
		}
	}
}

// tracedStore wraps the store a server is built over.
type tracedStore struct {
	memcached.Store
	t *tracer
}

func (s *tracedStore) Get(key string) (*memcached.Entry, bool) {
	s.t.touched(key)
	sp := s.t.begin(spStore, nil, -1)
	e, ok := s.Store.Get(key)
	s.t.end(sp, nil)
	return e, ok
}

func (s *tracedStore) Set(key string, e *memcached.Entry) bool {
	s.t.touched(key)
	sp := s.t.begin(spStore, nil, -1)
	ok := s.Store.Set(key, e)
	s.t.end(sp, nil)
	return ok
}
