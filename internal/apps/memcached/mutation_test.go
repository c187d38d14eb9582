package memcached

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
)

// Mutation-command edge suites: incr/decr, append/prepend, touch and
// flush_all over both protocols, mirroring the byte-exact style of
// textproto_test.go and the split sweep of protocol_edge_test.go.

func TestTextIncrDecrEdges(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"set n 0 0 2\r\n10\r\n"+
				"incr n 5\r\n"+ // 15
				"decr n 3\r\n"+ // 12
				"decr n 100\r\n"+ // clamps at 0
				"incr missing 1\r\n"+ // NOT_FOUND
				"set s 0 0 3\r\nabc\r\n"+
				"incr s 1\r\n"+ // non-numeric value
				"incr n abc\r\n"+ // bad delta argument
				"set big 0 0 20\r\n18446744073709551615\r\n"+
				"incr big 1\r\n")) // wraps to 0
		want := respStored +
			"15\r\n" +
			"12\r\n" +
			"0\r\n" +
			respNotFound +
			respStored +
			respNonNumeric +
			respBadDelta +
			respStored +
			"0\r\n"
		if string(fc.out) != want {
			t.Fatalf("incr/decr session:\n got %q\nwant %q", fc.out, want)
		}
	})
}

func TestTextIncrNoreply(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"set n 0 0 1\r\n7\r\n"+
				"incr n 2 noreply\r\n"+
				"decr n 1 noreply\r\n"+
				"get n\r\n"))
		want := respStored + "VALUE n 0 1\r\n8\r\n" + respEnd
		if string(fc.out) != want {
			t.Fatalf("noreply incr/decr session:\n got %q\nwant %q", fc.out, want)
		}
	})
}

func TestBinaryCounterEdges(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			counterRequest([]byte("n"), 1, 0, CounterNoCreate, true).Build(1),   // miss, no create
			counterRequest([]byte("n"), 3, 40, 0, true).Build(2),                // miss, seeds initial=40
			counterRequest([]byte("n"), 3, 0, CounterNoCreate, true).Build(3),   // 43
			counterRequest([]byte("n"), 50, 0, CounterNoCreate, false).Build(4), // clamps at 0
		)
		hdrs, bodies := parseResponses(t, fc.out)
		if len(hdrs) != 4 {
			t.Fatalf("%d responses, want 4", len(hdrs))
		}
		if hdrs[0].Status != StatusKeyNotFound {
			t.Fatalf("no-create miss status %#x, want KeyNotFound", hdrs[0].Status)
		}
		wantVals := []uint64{40, 43, 0}
		for i, want := range wantVals {
			h, b := hdrs[i+1], bodies[i+1]
			if h.Status != StatusOK || len(b) != 8 {
				t.Fatalf("counter response %d: status %#x body %d bytes", i+1, h.Status, len(b))
			}
			if got := binary.BigEndian.Uint64(b); got != want {
				t.Fatalf("counter response %d: value %d, want %d", i+1, got, want)
			}
			if h.CAS == 0 {
				t.Fatalf("counter response %d: CAS not minted", i+1)
			}
		}
		// The stored representation is the decimal string, like stock.
		if e, _ := srv.Store.Get("n"); string(e.Value) != "0" {
			t.Fatalf("stored counter value %q, want decimal \"0\"", e.Value)
		}
	})
}

func TestBinaryCounterNonNumericAndWrap(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			BuildSet([]byte("s"), []byte("abc"), 0, 1),
			counterRequest([]byte("s"), 1, 0, CounterNoCreate, true).Build(2),
			BuildSet([]byte("big"), []byte("18446744073709551615"), 0, 3),
			counterRequest([]byte("big"), 2, 0, CounterNoCreate, true).Build(4), // wraps to 1
		)
		hdrs, bodies := parseResponses(t, fc.out)
		if len(hdrs) != 4 {
			t.Fatalf("%d responses, want 4", len(hdrs))
		}
		if hdrs[1].Status != StatusDeltaBadval {
			t.Fatalf("incr on non-numeric status %#x, want DeltaBadval", hdrs[1].Status)
		}
		if hdrs[3].Status != StatusOK || binary.BigEndian.Uint64(bodies[3]) != 1 {
			t.Fatalf("wrap response status %#x value %v, want OK 1", hdrs[3].Status, bodies[3])
		}
	})
}

func TestTextAppendPrependCASMonotonic(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, []byte(
			"append k 0 0 1\r\nx\r\n"+ // nothing to append onto
				"prepend k 0 0 1\r\nx\r\n"+
				"set k 7 0 2\r\nbc\r\n"+
				"gets k\r\n"+
				"append k 0 0 1\r\nd\r\n"+
				"prepend k 0 0 1\r\na\r\n"+
				"gets k\r\n"))
		raw := string(fc.out)
		wantPrefix := respNotStored + respNotStored + respStored
		if len(raw) < len(wantPrefix) || raw[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("session prefix %q, want %q", raw, wantPrefix)
		}
		// First gets: "VALUE k 7 2 <cas1>\r\nbc\r\nEND\r\n", then two
		// STOREDs, then "VALUE k 7 4 <cas2>\r\nabcd\r\nEND\r\n".
		rest := raw[len(wantPrefix):]
		var flags1, len1 int
		var cas1 uint64
		if _, err := sscanValue(rest, "k", &flags1, &len1, &cas1); err != nil {
			t.Fatalf("first gets: %v (in %q)", err, rest)
		}
		if flags1 != 7 || len1 != 2 {
			t.Fatalf("first gets flags=%d len=%d, want 7 2", flags1, len1)
		}
		e, _ := srv.Store.Get("k")
		if string(e.Value) != "abcd" {
			t.Fatalf("final value %q, want abcd", e.Value)
		}
		// Concatenation preserves flags but mints fresh, larger CAS values.
		if e.Flags != 7 {
			t.Fatalf("append/prepend dropped flags: %d", e.Flags)
		}
		if e.CAS <= cas1 {
			t.Fatalf("CAS not monotonic across concats: %d -> %d", cas1, e.CAS)
		}
	})
}

func TestBinaryAppendPrepend(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			buildConcat([]byte("k"), []byte("x"), true, 1), // miss
			BuildSet([]byte("k"), []byte("bc"), 7, 2),
			buildConcat([]byte("k"), []byte("d"), true, 3),
			buildConcat([]byte("k"), []byte("a"), false, 4),
			BuildGet([]byte("k"), 5),
		)
		hdrs, bodies := parseResponses(t, fc.out)
		if len(hdrs) != 5 {
			t.Fatalf("%d responses, want 5", len(hdrs))
		}
		if hdrs[0].Status != StatusNotStored {
			t.Fatalf("concat miss status %#x, want NotStored", hdrs[0].Status)
		}
		if hdrs[2].Status != StatusOK || hdrs[3].Status != StatusOK {
			t.Fatalf("concat statuses %#x %#x", hdrs[2].Status, hdrs[3].Status)
		}
		if hdrs[3].CAS <= hdrs[2].CAS || hdrs[2].CAS <= hdrs[1].CAS {
			t.Fatalf("CAS not monotonic: set=%d append=%d prepend=%d",
				hdrs[1].CAS, hdrs[2].CAS, hdrs[3].CAS)
		}
		got := bodies[4][GetResponseExtrasLen:]
		if !bytes.Equal(got, []byte("abcd")) {
			t.Fatalf("final value %q, want abcd", got)
		}
		if flags := binary.BigEndian.Uint32(bodies[4][:4]); flags != 7 {
			t.Fatalf("concat dropped flags: %d", flags)
		}
	})
}

func TestBinaryTouchAndFlush(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			BuildSet([]byte("k"), []byte("v"), 0, 1),
			touchRequest([]byte("k"), 60).Build(2),
			touchRequest([]byte("missing"), 60).Build(3),
			buildFlush(0, 4),
			BuildGet([]byte("k"), 5),
		)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 5 {
			t.Fatalf("%d responses, want 5", len(hdrs))
		}
		if hdrs[1].Status != StatusOK {
			t.Fatalf("touch status %#x, want OK", hdrs[1].Status)
		}
		if hdrs[2].Status != StatusKeyNotFound {
			t.Fatalf("touch on missing key status %#x, want KeyNotFound", hdrs[2].Status)
		}
		if hdrs[3].Status != StatusOK {
			t.Fatalf("flush status %#x, want OK", hdrs[3].Status)
		}
		if hdrs[4].Status != StatusKeyNotFound {
			t.Fatalf("get after flush status %#x, want KeyNotFound", hdrs[4].Status)
		}
	})
}

// TestTextIncrSplitAtEveryOffset mirrors TestTextSplitAtEveryOffset for
// a mutation command: the session must behave identically no matter
// where the byte stream is cut.
func TestTextIncrSplitAtEveryOffset(t *testing.T) {
	session := []byte("set n 0 0 2\r\n41\r\nincr n 1\r\nappend n 0 0 1\r\n!\r\nget n\r\n")
	want := respStored + "42\r\n" + respStored + "VALUE n 0 3\r\n42!\r\n" + respEnd
	for cut := 1; cut < len(session); cut++ {
		cut := cut
		protoHarness(t, func(c *event.Ctx) {
			srv := NewServer(NewRCUStore(), 1)
			sc := &serverConn{srv: srv}
			fc := &fakeConn{}
			sc.onData(c, fc, iobuf.Wrap(session[:cut]))
			sc.onData(c, fc, iobuf.Wrap(session[cut:]))
			if string(fc.out) != want {
				t.Fatalf("cut=%d:\n got %q\nwant %q", cut, fc.out, want)
			}
		})
	}
}

// counterRequest is an INCREMENT (incr) or DECREMENT request. exptime
// CounterNoCreate makes a miss an error instead of seeding the counter
// with initial.
func counterRequest(key []byte, delta, initial uint64, exptime uint32, incr bool) Request {
	r := Request{Opcode: OpDecrement, Key: key}
	if incr {
		r.Opcode = OpIncrement
	}
	r.extra64(delta)
	r.extra64(initial)
	r.extra32(exptime)
	return r
}

// touchRequest is a TOUCH request: 4 exptime bytes of extras.
func touchRequest(key []byte, exptime uint32) Request {
	r := Request{Opcode: OpTouch, Key: key}
	r.extra32(exptime)
	return r
}

// buildConcat encodes a binary append/prepend request (no extras).
func buildConcat(key, value []byte, atEnd bool, opaque uint32) []byte {
	op := byte(OpPrepend)
	if atEnd {
		op = OpAppend
	}
	body := len(key) + len(value)
	b := make([]byte, HeaderLen+body)
	WriteHeader(b, Header{
		Magic: MagicRequest, Opcode: op,
		KeyLen: uint16(len(key)), BodyLen: uint32(body), Opaque: opaque,
	})
	copy(b[HeaderLen:], key)
	copy(b[HeaderLen+len(key):], value)
	return b
}

// buildFlush encodes a binary flush_all request with a 4-byte delay.
func buildFlush(delay uint32, opaque uint32) []byte {
	b := make([]byte, HeaderLen+4)
	WriteHeader(b, Header{
		Magic: MagicRequest, Opcode: OpFlush,
		ExtrasLen: 4, BodyLen: 4, Opaque: opaque,
	})
	binary.BigEndian.PutUint32(b[HeaderLen:], delay)
	return b
}

// sscanValue parses the "VALUE <key> <flags> <len> <cas>" line at the
// head of a gets response.
func sscanValue(raw, key string, flags, length *int, cas *uint64) (int, error) {
	var k string
	n, err := fmt.Sscanf(raw, "VALUE %s %d %d %d", &k, flags, length, cas)
	if err != nil {
		return n, err
	}
	if k != key {
		return n, fmt.Errorf("gets returned key %q, want %q", k, key)
	}
	return n, nil
}
