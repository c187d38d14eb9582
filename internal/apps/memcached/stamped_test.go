package memcached

import (
	"testing"

	"ebbrt/internal/event"
)

// TestStampedSetStoreRule: a SET carrying a nonzero request CAS stores
// that exact stamp under last-writer-wins - an older stamp arriving
// after a newer one (replica deliveries have no ordering guarantee)
// must neither overwrite the value nor be echoed back as the winner.
func TestStampedSetStoreRule(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			BuildSetStamped([]byte("k"), []byte("v1"), 0, 1, 100), // absent: stored
			BuildSetStamped([]byte("k"), []byte("v0"), 0, 2, 90),  // older stamp: dropped
			BuildSetStamped([]byte("k"), []byte("v2"), 0, 3, 120), // newer stamp: stored
			BuildSetStamped([]byte("k"), []byte("vX"), 0, 4, 120), // equal stamp: dropped (idempotent redelivery)
		)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 4 {
			t.Fatalf("%d responses, want 4", len(hdrs))
		}
		wantCAS := []uint64{100, 100, 120, 120}
		for i, w := range wantCAS {
			if hdrs[i].Status != StatusOK || hdrs[i].CAS != w {
				t.Errorf("response %d: status %#x CAS %d, want OK/%d",
					i, hdrs[i].Status, hdrs[i].CAS, w)
			}
		}
		e, ok := srv.Store.Get("k")
		if !ok || string(e.Value) != "v2" || e.CAS != 120 {
			t.Fatalf("store holds %+v, want v2 at stamp 120", e)
		}
	})
}

// TestStampedDeleteRule: a DELETE carrying a stamp removes an entry
// whose stamp is not newer, and leaves a newer one in place - the delete
// is ordered before that entry's write - answering as a hit either way.
// A plain DELETE removes whatever is there.
func TestStampedDeleteRule(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		del := func(key string, stamp uint64, opaque uint32) []byte {
			return Request{Opcode: OpDelete, Key: []byte(key), CAS: stamp}.Build(opaque)
		}
		_, fc := feed(c, srv,
			BuildSetStamped([]byte("new"), []byte("v"), 0, 1, 120),
			del("new", 100, 2), // older than the entry: kept
			BuildSetStamped([]byte("old"), []byte("v"), 0, 3, 100),
			del("old", 100, 4), // the entry's own stamp: removed
			del("old", 200, 5), // absent
			Request{Opcode: OpDelete, Key: []byte("new")}.Build(6),
		)
		hdrs, _ := parseResponses(t, fc.out)
		want := []uint16{StatusOK, StatusOK, StatusOK, StatusOK, StatusKeyNotFound, StatusOK}
		if len(hdrs) != len(want) {
			t.Fatalf("%d responses, want %d", len(hdrs), len(want))
		}
		for i, w := range want {
			if hdrs[i].Status != w {
				t.Errorf("response %d: status %#x, want %#x", i, hdrs[i].Status, w)
			}
		}
		for _, key := range []string{"new", "old"} {
			if _, ok := srv.Store.Get(key); ok {
				t.Errorf("%q is still stored", key)
			}
		}
	})
}

// TestStampedSetDoesNotMixWithMinted: a plain SET still mints from the
// server-local counter, and a stamped SET never advances that counter -
// the two CAS spaces stay independent.
func TestStampedSetDoesNotMixWithMinted(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			BuildSetStamped([]byte("stamped"), []byte("s"), 0, 1, 5000),
			BuildSet([]byte("plain-a"), []byte("a"), 0, 2),
			BuildSet([]byte("plain-b"), []byte("b"), 0, 3),
		)
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 3 {
			t.Fatalf("%d responses, want 3", len(hdrs))
		}
		if hdrs[0].CAS != 5000 {
			t.Fatalf("stamped set echoed %d, want 5000", hdrs[0].CAS)
		}
		// Minted CAS values are sequential from the server's own counter,
		// unperturbed by the stamped store before them.
		if hdrs[1].CAS+1 != hdrs[2].CAS || hdrs[1].CAS >= 5000 {
			t.Fatalf("plain sets minted CAS %d, %d - counter perturbed by the stamped store",
				hdrs[1].CAS, hdrs[2].CAS)
		}
	})
}

// TestStampedAddPreservesStamp: the migration stream's ADD carries the
// source entry's stamp and the restored copy must keep it exactly; a
// plain ADD still mints locally.
func TestStampedAddPreservesStamp(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		feed(c, srv,
			storeRequest(OpAddQ, []byte("migrated"), []byte("v"), 3, 777).Build(1),
			storeRequest(OpAddQ, []byte("plain"), []byte("v"), 0, 0).Build(2),
		)
		e, ok := srv.Store.Get("migrated")
		if !ok || e.CAS != 777 || e.Flags != 3 {
			t.Fatalf("stamped add stored %+v, want CAS 777 flags 3 - stream re-minted the version", e)
		}
		p, ok := srv.Store.Get("plain")
		if !ok || p.CAS == 0 || p.CAS == 777 {
			t.Fatalf("plain add stored CAS %d, want a freshly minted local value", p.CAS)
		}
	})
}

// TestStampedSetQuiet: the quiet variant applies the same stamped store
// rule, silently.
func TestStampedSetQuiet(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		newer := BuildSetStamped([]byte("q"), []byte("new"), 0, 1, 200)
		newer[0+1] = byte(OpSetQ) // rewrite opcode in place: header byte 1
		older := BuildSetStamped([]byte("q"), []byte("old"), 0, 2, 150)
		older[0+1] = byte(OpSetQ)
		_, fc := feed(c, srv, newer, older, Request{Opcode: OpNoop}.Build(3))
		hdrs, _ := parseResponses(t, fc.out)
		if len(hdrs) != 1 || hdrs[0].Opcode != OpNoop {
			t.Fatalf("quiet stamped sets answered: %d responses", len(hdrs))
		}
		e, ok := srv.Store.Get("q")
		if !ok || string(e.Value) != "new" || e.CAS != 200 {
			t.Fatalf("store holds %+v, want new at stamp 200 - quiet path broke the stamp rule", e)
		}
	})
}
