package memcached

import (
	"bytes"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// fakeConn captures server output without a network, so the protocol
// edge cases (especially the every-byte-offset split sweep) run at unit
// speed against the real serverConn reassembly/dispatch logic.
type fakeConn struct {
	out    []byte
	closed bool
}

// Send takes the chain as a stack does, and frees it as the peer's
// acknowledgment would.
func (f *fakeConn) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	f.out = append(f.out, payload.CopyOut()...)
	payload.Free()
}
func (f *fakeConn) Close(c *event.Ctx) { f.closed = true }
func (f *fakeConn) Core() int          { return 0 }

// protoHarness runs fn inside a live event context.
func protoHarness(t *testing.T, fn func(c *event.Ctx)) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("proto", 1))
	mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
	done := false
	mgr.Spawn(func(c *event.Ctx) {
		fn(c)
		done = true
	})
	k.RunUntil(1 * sim.Second)
	if !done {
		t.Fatal("harness event did not run")
	}
}

// feed delivers the byte chunks to a fresh server connection and
// returns the connection, its fake transport, and the server.
func feed(c *event.Ctx, srv *Server, chunks ...[]byte) (*serverConn, *fakeConn) {
	sc := &serverConn{srv: srv}
	fc := &fakeConn{}
	for _, chunk := range chunks {
		if sc.srv != nil && !fc.closed {
			sc.onData(c, fc, iobuf.Wrap(chunk))
		}
	}
	return sc, fc
}

// feedChain delivers the chunks to a fresh server connection as one
// multi-element chain: what a GPOS read() hands up after several segments
// coalesced in the socket buffer.
func feedChain(c *event.Ctx, srv *Server, chunks ...[]byte) (*serverConn, *fakeConn) {
	sc := &serverConn{srv: srv}
	fc := &fakeConn{}
	chain := iobuf.Wrap(chunks[0])
	for _, chunk := range chunks[1:] {
		chain.AppendChain(iobuf.Wrap(chunk))
	}
	sc.onData(c, fc, chain)
	return sc, fc
}

func parseResponses(t *testing.T, raw []byte) ([]Header, [][]byte) {
	t.Helper()
	var hdrs []Header
	var bodies [][]byte
	for off := 0; off < len(raw); {
		h, err := ParseHeader(raw[off:])
		if err != nil {
			t.Fatalf("bad response at %d: %v", off, err)
		}
		if h.Magic != MagicResponse {
			t.Fatalf("response magic %#x", h.Magic)
		}
		total := HeaderLen + int(h.BodyLen)
		if off+total > len(raw) {
			t.Fatalf("truncated response at %d", off)
		}
		hdrs = append(hdrs, h)
		bodies = append(bodies, raw[off+HeaderLen:off+total])
		off += total
	}
	return hdrs, bodies
}

func TestTruncatedHeaderHeldUntilCompleted(t *testing.T) {
	// A partial header must produce no response and no close; the
	// request completes when the remainder arrives.
	req := BuildGet([]byte("k"), 7)
	for cut := 1; cut < HeaderLen; cut++ {
		protoHarness(t, func(c *event.Ctx) {
			srv := NewServer(NewRCUStore(), 1)
			srv.Store.Set("k", &Entry{Value: []byte("v")})
			sc, fc := feed(c, srv, req[:cut])
			if len(fc.out) != 0 || fc.closed {
				t.Fatalf("cut=%d: server reacted to truncated header (out=%d closed=%v)",
					cut, len(fc.out), fc.closed)
			}
			sc.onData(c, fc, iobuf.Wrap(req[cut:]))
			hdrs, bodies := parseResponses(t, fc.out)
			if len(hdrs) != 1 || hdrs[0].Status != StatusOK || string(bodies[0][GetResponseExtrasLen:]) != "v" {
				t.Fatalf("cut=%d: bad completion %+v", cut, hdrs)
			}
		})
	}
}

func TestTruncatedHeaderNeverAnsweredIfAbandoned(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, BuildGet([]byte("k"), 1)[:HeaderLen-1])
		if len(fc.out) != 0 || fc.closed {
			t.Fatalf("reacted to abandoned partial header")
		}
		if srv.Requests != 0 {
			t.Fatalf("counted %d requests for zero complete frames", srv.Requests)
		}
	})
}

func TestBadMagicClosesConnection(t *testing.T) {
	// A first byte other than 0x80 selects the text protocol (see
	// textproto_test.go), so the desync-means-close rule now applies to
	// connections that already committed to binary: once the first frame
	// carried the request magic, a later frame without it is a
	// desynchronized stream and must drop the connection.
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		junk := make([]byte, HeaderLen)
		junk[0] = 0x42
		_, fc := feed(c, srv, Request{Opcode: OpNoop}.Build(1), junk)
		if !fc.closed {
			t.Fatal("protocol error did not close the connection")
		}
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 1 || hdrs[0].Opaque != 1 {
			t.Fatalf("want only the pre-junk noop response, got %+v", hdrs)
		}
	})
}

func TestUnknownOpcodeStatus(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		req := buildOp(0x55, []byte("key"), 0xbeef)
		_, fc := feed(c, srv, req)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 1 {
			t.Fatalf("%d responses", len(hdrs))
		}
		if hdrs[0].Status != StatusUnknownCmd {
			t.Fatalf("status %#x, want StatusUnknownCmd", hdrs[0].Status)
		}
		if hdrs[0].Opaque != 0xbeef || hdrs[0].Opcode != 0x55 {
			t.Fatalf("echo fields wrong: %+v", hdrs[0])
		}
	})
}

// buildSetQ encodes a quiet SET.
func buildSetQ(key, value []byte, opaque uint32) []byte {
	b := BuildSet(key, value, 0, opaque)
	b[1] = OpSetQ
	return b
}

func TestQuietSemantics(t *testing.T) {
	// The quiet variants answer only when something went wrong: GetQ
	// suppresses misses (but answers hits), SetQ suppresses successes.
	cases := []struct {
		name string
		prep func(s Store)
		req  func() []byte
		// wantOpaques lists the responses that must appear, in order; a
		// trailing Noop (opaque 99) is always appended as a fence.
		wantOpaques  []uint32
		wantStatuses []uint16
	}{
		{
			name:         "GetQ miss is silent",
			req:          func() []byte { return buildOp(OpGetQ, []byte("absent"), 1) },
			wantOpaques:  []uint32{99},
			wantStatuses: []uint16{StatusOK},
		},
		{
			name:         "GetQ hit answers",
			prep:         func(s Store) { s.Set("present", &Entry{Value: []byte("v")}) },
			req:          func() []byte { return buildOp(OpGetQ, []byte("present"), 2) },
			wantOpaques:  []uint32{2, 99},
			wantStatuses: []uint16{StatusOK, StatusOK},
		},
		{
			name:         "SetQ success is silent",
			req:          func() []byte { return buildSetQ([]byte("sk"), []byte("sv"), 3) },
			wantOpaques:  []uint32{99},
			wantStatuses: []uint16{StatusOK},
		},
		{
			name:         "loud Get miss answers",
			req:          func() []byte { return BuildGet([]byte("absent"), 4) },
			wantOpaques:  []uint32{4, 99},
			wantStatuses: []uint16{StatusKeyNotFound, StatusOK},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			protoHarness(t, func(c *event.Ctx) {
				srv := NewServer(NewRCUStore(), 1)
				if tc.prep != nil {
					tc.prep(srv.Store)
				}
				noop := buildOp(OpNoop, nil, 99)
				_, fc := feed(c, srv, append(tc.req(), noop...))
				hdrs, _ := parseResponses(t, fc.out)
				if len(hdrs) != len(tc.wantOpaques) {
					t.Fatalf("%d responses, want %d: %+v", len(hdrs), len(tc.wantOpaques), hdrs)
				}
				for i := range hdrs {
					if hdrs[i].Opaque != tc.wantOpaques[i] || hdrs[i].Status != tc.wantStatuses[i] {
						t.Fatalf("response %d = opaque %d status %#x, want opaque %d status %#x",
							i, hdrs[i].Opaque, hdrs[i].Status, tc.wantOpaques[i], tc.wantStatuses[i])
					}
				}
			})
		})
	}
}

// TestAddSemantics: ADD stores only when absent (KeyExists otherwise);
// the quiet variant suppresses the success response but still reports
// the conflict, as stock memcached does.
func TestAddSemantics(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("taken", &Entry{Value: []byte("fresh")})

		_, fc := feed(c, srv,
			storeRequest(OpAdd, []byte("new"), []byte("v1"), 7, 0).Build(1),     // plain add, absent -> OK
			storeRequest(OpAdd, []byte("new"), []byte("v2"), 0, 0).Build(2),     // plain add, present -> KeyExists
			storeRequest(OpAddQ, []byte("quiet"), []byte("q1"), 0, 0).Build(3),  // quiet add, absent -> silent
			storeRequest(OpAddQ, []byte("taken"), []byte("old"), 0, 0).Build(4), // quiet add, present -> KeyExists
			Request{Opcode: OpNoop}.Build(5),
		)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 4 {
			t.Fatalf("%d responses, want 4 (ok, exists, exists, noop)", len(hdrs))
		}
		want := []struct {
			opaque uint32
			status uint16
		}{
			{1, StatusOK},
			{2, StatusKeyExists},
			{4, StatusKeyExists},
			{5, StatusOK},
		}
		for i, w := range want {
			if hdrs[i].Opaque != w.opaque || hdrs[i].Status != w.status {
				t.Errorf("response %d: opaque %d status %#x, want %d/%#x",
					i, hdrs[i].Opaque, hdrs[i].Status, w.opaque, w.status)
			}
		}
		if e, _ := srv.Store.Get("new"); string(e.Value) != "v1" || e.Flags != 7 {
			t.Errorf("add stored %q flags %d", e.Value, e.Flags)
		}
		if e, _ := srv.Store.Get("taken"); string(e.Value) != "fresh" {
			t.Errorf("quiet add clobbered existing value: %q", e.Value)
		}
		if e, _ := srv.Store.Get("quiet"); e == nil || string(e.Value) != "q1" {
			t.Error("quiet add did not store into empty slot")
		}
	})
}

func TestQuietSetIsApplied(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		feed(c, srv, buildSetQ([]byte("sk"), []byte("sv"), 1))
		e, ok := srv.Store.Get("sk")
		if !ok || string(e.Value) != "sv" {
			t.Fatalf("SetQ not applied: %+v ok=%v", e, ok)
		}
	})
}

func TestMultiRequestFrameSplitAtEveryOffset(t *testing.T) {
	// A pipelined frame of mixed loud/quiet requests must produce
	// byte-identical output no matter where the stream is split in two.
	// One value is long enough to leave by reference (borrowMin), in the
	// middle of the batch, so the sweep covers the lent path too.
	key := []byte("pipeline-key")
	long := bytes.Repeat([]byte("lent "), borrowMin)
	frame := BuildSet(key, []byte("value-1"), 5, 1)
	frame = append(frame, buildOp(OpGetQ, []byte("no-such-key"), 2)...) // silent miss
	frame = append(frame, BuildGet(key, 3)...)
	frame = append(frame, BuildGet([]byte("long"), 7)...)
	frame = append(frame, buildSetQ(key, []byte("value-2"), 4)...) // silent success
	frame = append(frame, BuildGet(key, 5)...)
	frame = append(frame, buildOp(OpNoop, nil, 6)...)
	newServer := func() *Server {
		srv := NewServer(NewRCUStore(), 1)
		srv.Store.Set("long", &Entry{Value: long})
		return srv
	}

	// Reference: the whole frame in one delivery.
	var want []byte
	protoHarness(t, func(c *event.Ctx) {
		_, fc := feed(c, newServer(), frame)
		want = append([]byte(nil), fc.out...)
	})
	hdrs, bodies := parseResponses(t, want)
	if len(hdrs) != 5 {
		t.Fatalf("reference run: %d responses, want 5", len(hdrs))
	}
	if string(bodies[1][GetResponseExtrasLen:]) != "value-1" || !bytes.Equal(bodies[2][GetResponseExtrasLen:], long) ||
		string(bodies[3][GetResponseExtrasLen:]) != "value-2" {
		t.Fatalf("reference run bodies wrong")
	}

	// Each cut arrives both ways: as two deliveries, and as one delivery
	// of a two-element chain.
	for cut := 1; cut < len(frame); cut++ {
		for name, deliver := range map[string]func(*event.Ctx, *Server, ...[]byte) (*serverConn, *fakeConn){"flat": feed, "chain": feedChain} {
			protoHarness(t, func(c *event.Ctx) {
				srv := newServer()
				_, fc := deliver(c, srv, frame[:cut], frame[cut:])
				if !bytes.Equal(fc.out, want) {
					t.Fatalf("cut=%d %s: output diverged (%d bytes vs %d)", cut, name, len(fc.out), len(want))
				}
				if srv.Requests != 7 {
					t.Fatalf("cut=%d %s: served %d requests, want 7", cut, name, srv.Requests)
				}
			})
		}
	}
	if !bytes.Equal(long, bytes.Repeat([]byte("lent "), borrowMin)) {
		t.Fatal("serving the long value wrote to it")
	}
}

func TestMultiRequestFrameByteAtATime(t *testing.T) {
	// The adversarial extreme: one byte per delivery.
	key := []byte("k")
	frame := BuildSet(key, []byte("v"), 0, 1)
	frame = append(frame, BuildGet(key, 2)...)
	var want []byte
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, frame)
		want = append([]byte(nil), fc.out...)
	})
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		sc := &serverConn{srv: srv}
		fc := &fakeConn{}
		for _, b := range frame {
			sc.onData(c, fc, iobuf.Wrap([]byte{b}))
		}
		if !bytes.Equal(fc.out, want) {
			t.Fatalf("byte-at-a-time output diverged")
		}
	})
}

func TestNextFrame(t *testing.T) {
	req := BuildSet([]byte("k"), []byte("v"), 0, 9)
	cases := []struct {
		name    string
		data    []byte
		magic   byte
		wantN   int
		wantErr bool
	}{
		{"empty", nil, MagicRequest, 0, false},
		{"partial header", req[:HeaderLen-1], MagicRequest, 0, false},
		{"header only", req[:HeaderLen], MagicRequest, 0, false},
		{"partial body", req[:len(req)-1], MagicRequest, 0, false},
		{"complete", req, MagicRequest, len(req), false},
		{"complete plus tail", append(append([]byte(nil), req...), 0xff), MagicRequest, len(req), false},
		{"wrong magic detected before body", req[:HeaderLen], MagicResponse, 0, true},
		{"inconsistent lengths", func() []byte {
			b := make([]byte, HeaderLen)
			WriteHeader(b, Header{Magic: MagicRequest, KeyLen: 9, BodyLen: 3})
			return b
		}(), MagicRequest, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr, body, n, err := NextFrame(tc.data, tc.magic)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if n != tc.wantN {
				t.Fatalf("n = %d, want %d", n, tc.wantN)
			}
			if n > 0 {
				if hdr.Opaque != 9 {
					t.Fatalf("header not parsed: %+v", hdr)
				}
				if len(body) != int(hdr.BodyLen) {
					t.Fatalf("body %d bytes, want %d", len(body), hdr.BodyLen)
				}
			}
		})
	}
}

// appnet.Conn conformance for the fake.
var _ appnet.Conn = (*fakeConn)(nil)

// A binary storage request whose value is over the item limit is refused
// as the text protocol refuses one: StatusValueTooBig, nothing stored, and
// the announced body swallowed as it arrives - in pieces, or whole in one
// delivery - without being buffered, so the next request on the
// connection is served.
func TestBinaryOversizedValueRefused(t *testing.T) {
	value := bytes.Repeat([]byte("z"), MaxTextValue+1)
	for _, tc := range []struct {
		name   string
		req    []byte
		pieces int // deliveries the request arrives in
	}{
		{"set", BuildSet([]byte("big"), value, 0, 1), 17},
		{"addq", storeRequest(OpAddQ, []byte("big"), value, 0, 0).Build(1), 17},
		{"append", Request{Opcode: OpAppend, Key: []byte("big"), Value: value}.Build(1), 17},
		{"set in one delivery", BuildSet([]byte("big"), value, 0, 1), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			protoHarness(t, func(c *event.Ctx) {
				srv := NewServer(NewRCUStore(), 1)
				srv.Store.Set("big", &Entry{Value: []byte("small")})
				sc, fc := &serverConn{srv: srv}, &fakeConn{}
				step := (len(tc.req) + tc.pieces - 1) / tc.pieces
				for off := 0; off < len(tc.req); off += step {
					sc.onData(c, fc, iobuf.Wrap(tc.req[off:min(off+step, len(tc.req))]))
					if sc.rx.Len() > HeaderLen {
						t.Fatalf("the connection buffered %d bytes of a refused request", sc.rx.Len())
					}
				}
				sc.onData(c, fc, iobuf.Wrap(BuildGet([]byte("big"), 2)))
				hdrs, bodies := parseResponses(t, fc.out)
				if len(hdrs) != 2 || hdrs[0].Status != StatusValueTooBig || hdrs[0].Opaque != 1 ||
					hdrs[1].Status != StatusOK || string(bodies[1][GetResponseExtrasLen:]) != "small" {
					t.Fatalf("%d responses (%+v): want the refusal, then the GET of the entry it left alone", len(hdrs), hdrs)
				}
				if fc.closed || srv.stats.cmdSet != 0 {
					t.Fatalf("closed %v, %d storage commands counted", fc.closed, srv.stats.cmdSet)
				}
			})
		})
	}
}
