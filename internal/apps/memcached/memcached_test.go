package memcached

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func TestHeaderRoundTrip(t *testing.T) {
	prop := func(op byte, keyLen uint8, extras uint8, body uint16, opaque uint32, cas uint64) bool {
		bodyLen := uint32(keyLen) + uint32(extras) + uint32(body)
		h := Header{
			Magic: MagicRequest, Opcode: op,
			KeyLen: uint16(keyLen), ExtrasLen: extras,
			BodyLen: bodyLen, Opaque: opaque, CAS: cas,
		}
		b := make([]byte, HeaderLen)
		WriteHeader(b, h)
		got, err := ParseHeader(b)
		return err == nil && got == h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseHeaderRejectsInconsistentLengths(t *testing.T) {
	b := make([]byte, HeaderLen)
	WriteHeader(b, Header{Magic: MagicRequest, KeyLen: 10, BodyLen: 5})
	if _, err := ParseHeader(b); err == nil {
		t.Fatal("inconsistent lengths accepted")
	}
	if _, err := ParseHeader(b[:10]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestStoresAgree(t *testing.T) {
	for name, mk := range stores() {
		store := mk()
		if _, ok := store.Get("missing"); ok {
			t.Fatalf("%s: found missing key", name)
		}
		store.Set("k", &Entry{Value: []byte("v"), Flags: 7})
		e, ok := store.Get("k")
		if !ok || string(e.Value) != "v" || e.Flags != 7 {
			t.Fatalf("%s: got %+v ok=%v", name, e, ok)
		}
		if store.Len() != 1 {
			t.Fatalf("%s: len %d", name, store.Len())
		}
		if !store.Delete("k") || store.Delete("k") {
			t.Fatalf("%s: delete semantics wrong", name)
		}
	}
}

func TestLockedStoreCostGrowsWithCores(t *testing.T) {
	s := NewLockedStore()
	if s.OpCost(4) <= s.OpCost(1) {
		t.Fatal("locked store contention cost not increasing")
	}
	r := NewRCUStore()
	if r.OpCost(24) != r.OpCost(1) {
		t.Fatal("RCU store cost should be core-count independent")
	}
}

// serveAndExchange runs a request against a live server over the testbed
// and returns the raw responses.
func serveAndExchange(t *testing.T, requests [][]byte) []byte {
	t.Helper()
	pair := testbed.NewPair(testbed.EbbRT, 1, 2)
	srv := NewServer(NewRCUStore(), 1)
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	var responses []byte
	pair.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		pair.Client.Dial(c, testbed.ServerIP, Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				responses = append(responses, payload.CopyOut()...)
			},
		}, func(c *event.Ctx, conn appnet.Conn) {
			for _, req := range requests {
				conn.Send(c, iobuf.Wrap(req))
			}
		})
	})
	pair.K.RunUntil(100 * sim.Millisecond)
	return responses
}

func TestSetGetDeleteOverNetwork(t *testing.T) {
	key := []byte("the-key")
	val := []byte("the-value")
	resp := serveAndExchange(t, [][]byte{
		BuildSet(key, val, 0xdead, 1),
		BuildGet(key, 2),
		Request{Opcode: OpDelete, Key: key}.Build(3),
		BuildGet(key, 4),
	})

	// Parse the four responses.
	var hdrs []Header
	var bodies [][]byte
	for off := 0; off+HeaderLen <= len(resp); {
		h, err := ParseHeader(resp[off:])
		if err != nil {
			t.Fatal(err)
		}
		total := HeaderLen + int(h.BodyLen)
		hdrs = append(hdrs, h)
		bodies = append(bodies, resp[off+HeaderLen:off+total])
		off += total
	}
	if len(hdrs) != 4 {
		t.Fatalf("got %d responses", len(hdrs))
	}
	if hdrs[0].Status != StatusOK || hdrs[0].Opaque != 1 {
		t.Fatalf("set response %+v", hdrs[0])
	}
	if hdrs[1].Status != StatusOK || hdrs[1].Opaque != 2 {
		t.Fatalf("get response %+v", hdrs[1])
	}
	flags := binary.BigEndian.Uint32(bodies[1][:4])
	if flags != 0xdead || string(bodies[1][GetResponseExtrasLen:]) != "the-value" {
		t.Fatalf("get body flags=%x value=%q", flags, bodies[1][GetResponseExtrasLen:])
	}
	if hdrs[2].Status != StatusOK {
		t.Fatalf("delete response %+v", hdrs[2])
	}
	if hdrs[3].Status != StatusKeyNotFound {
		t.Fatalf("get-after-delete response %+v", hdrs[3])
	}
}

func TestGetQSuppressesMiss(t *testing.T) {
	resp := serveAndExchange(t, [][]byte{
		buildOp(OpGetQ, []byte("absent"), 9),
		BuildGet([]byte("also-absent"), 10),
	})
	h, err := ParseHeader(resp)
	if err != nil {
		t.Fatal(err)
	}
	// The quiet miss produced nothing; the first response is the loud one.
	if h.Opaque != 10 || h.Status != StatusKeyNotFound {
		t.Fatalf("first response %+v", h)
	}
}

func buildOp(op byte, key []byte, opaque uint32) []byte {
	b := make([]byte, HeaderLen+len(key))
	WriteHeader(b, Header{Magic: MagicRequest, Opcode: op,
		KeyLen: uint16(len(key)), BodyLen: uint32(len(key)), Opaque: opaque})
	copy(b[HeaderLen:], key)
	return b
}

func TestPipelinedRequestsSplitAcrossSegments(t *testing.T) {
	// Concatenate several requests, then send them in awkward fragments to
	// exercise the reassembly path.
	key := []byte("kk")
	all := append(BuildSet(key, []byte("v1"), 0, 1), BuildGet(key, 2)...)
	all = append(all, BuildGet(key, 3)...)
	var frags [][]byte
	for len(all) > 0 {
		n := 7
		if n > len(all) {
			n = len(all)
		}
		frags = append(frags, all[:n])
		all = all[n:]
	}
	resp := serveAndExchange(t, frags)
	count := 0
	for off := 0; off+HeaderLen <= len(resp); {
		h, err := ParseHeader(resp[off:])
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != StatusOK {
			t.Fatalf("response %d status %d", count, h.Status)
		}
		off += HeaderLen + int(h.BodyLen)
		count++
	}
	if count != 3 {
		t.Fatalf("got %d responses, want 3", count)
	}
}
