package memcached

import (
	"bytes"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
)

// buildRound assembles one pipelined multiget round: a GETQ per key
// fenced by a Noop, exactly as the cluster client's batched submission
// queue emits it.
func buildRound(keys []string, fenceOpaque uint32) []byte {
	var pkt []byte
	for i, k := range keys {
		pkt = append(pkt, Request{Opcode: OpGetQ, Key: []byte(k)}.Build(uint32(i+1))...)
	}
	return append(pkt, Request{Opcode: OpNoop}.Build(fenceOpaque)...)
}

// roundServer seeds a server for the mixed round: k1 and k4 live, k3
// stored but already expired (a past deadline reclaimed on touch), k2
// never stored.
func roundServer(t *testing.T) *Server {
	t.Helper()
	srv := NewServer(NewRCUStore(), 1)
	srv.Store.Set("k1", &Entry{Value: []byte("v1"), Flags: 7, CAS: 11})
	srv.Store.Set("k3", &Entry{Value: []byte("dead"), Expires: 1, CAS: 12})
	srv.Store.Set("k4", &Entry{Value: []byte("v4"), CAS: 13})
	return srv
}

var roundKeys = []string{"k1", "k2", "k3", "k4"}

// checkRound verifies the byte-exact response stream of the mixed
// round: hits for k1 (opaque 1) and k4 (opaque 4) with the GETQ opcode
// echoed, nothing at all for the miss and the expired entry, and the
// Noop fence last.
func checkRound(t *testing.T, raw []byte) {
	t.Helper()
	hdrs, bodies := parseResponses(t, raw)
	if len(hdrs) != 3 {
		t.Fatalf("%d responses, want hits for k1+k4 and the fence", len(hdrs))
	}
	for i, want := range []struct {
		opcode byte
		opaque uint32
		cas    uint64
		value  string
	}{
		{OpGetQ, 1, 11, "v1"},
		{OpGetQ, 4, 13, "v4"},
		{OpNoop, 9, 0, ""},
	} {
		h := hdrs[i]
		if h.Opcode != want.opcode || h.Opaque != want.opaque || h.Status != StatusOK || h.CAS != want.cas {
			t.Fatalf("response %d: %+v, want opcode %#x opaque %d cas %d", i, h, want.opcode, want.opaque, want.cas)
		}
		if want.value != "" && string(bodies[i][GetResponseExtrasLen:]) != want.value {
			t.Fatalf("response %d: value %q, want %q", i, bodies[i][GetResponseExtrasLen:], want.value)
		}
	}
}

func TestGetQRoundMixedHitsMissesExpired(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := roundServer(t)
		_, fc := feed(c, srv, buildRound(roundKeys, 9))
		checkRound(t, fc.out)
		if srv.ExpiredReclaimed != 1 {
			t.Fatalf("expired entry not reclaimed by the quiet read (reclaims=%d)", srv.ExpiredReclaimed)
		}
	})
}

func TestGetQRoundSplitAtEveryOffset(t *testing.T) {
	// The round's responses must be byte-identical no matter how TCP
	// fragments the request stream: every split point yields the same
	// hits, the same suppressed misses, and the fence last.
	round := buildRound(roundKeys, 9)
	var want []byte
	protoHarness(t, func(c *event.Ctx) {
		_, fc := feed(c, roundServer(t), round)
		want = append([]byte(nil), fc.out...)
	})
	for cut := 1; cut < len(round); cut++ {
		protoHarness(t, func(c *event.Ctx) {
			_, fc := feed(c, roundServer(t), round[:cut], round[cut:])
			if !bytes.Equal(fc.out, want) {
				t.Fatalf("cut=%d: response stream diverged (%d bytes vs %d)", cut, len(fc.out), len(want))
			}
		})
	}
}

func TestGetQRoundAllMissesAnswersOnlyFence(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv, buildRound([]string{"a", "b", "c"}, 77))
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 1 || hdrs[0].Opcode != OpNoop || hdrs[0].Opaque != 77 {
			t.Fatalf("want only the fence response, got %+v", hdrs)
		}
	})
}

func TestGetQRoundSingleDeliveryCoalesces(t *testing.T) {
	// A round delivered as one segment must come back as one Send: the
	// server coalesces the delivery batch's responses, which is half of
	// what batching saves the frontend (one receive path, not N).
	protoHarness(t, func(c *event.Ctx) {
		srv := roundServer(t)
		sc := &serverConn{srv: srv}
		fc := &countingConn{}
		sc.onData(c, fc, iobuf.Wrap(buildRound(roundKeys, 9)))
		if fc.sends != 1 {
			t.Fatalf("round answered in %d sends, want 1 coalesced send", fc.sends)
		}
		checkRound(t, fc.out)
	})
}

// countingConn is fakeConn plus a Send-call counter.
type countingConn struct {
	fakeConn
	sends int
}

func (f *countingConn) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	f.sends++
	f.fakeConn.Send(c, payload)
}
