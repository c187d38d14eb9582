package memcached

import (
	"bytes"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/sim"
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

// TestStampedDeleteRule: a DELETE carrying a stamp replaces an entry
// whose stamp is not newer with its tombstone, and leaves a newer one in
// place - the delete is ordered before that entry's write - answering as
// a hit either way. A plain DELETE removes whatever is there.
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
		if _, ok := srv.Store.Get("new"); ok {
			t.Error(`"new" is still stored`)
		}
		if e, ok := srv.Store.Get("old"); !ok || !e.Tombstone() || e.CAS != 200 {
			t.Errorf(`"old" holds %+v, want the tombstone of the Delete at 200`, e)
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

// TestStampedAddPreservesStamp: a stamped ADD carries the sender's
// stamp and the stored copy keeps it exactly; a plain ADD still mints
// locally.
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

// stampedDelete is a DELETE carrying a version stamp, as the cluster
// client sends it.
func stampedDelete(key string, stamp uint64, opaque uint32) []byte {
	return Request{Opcode: OpDelete, Key: []byte(key), CAS: stamp}.Build(opaque)
}

// respFrame is the binary response frame the server writes: a header
// echoing op and opaque, then extras and value.
func respFrame(op byte, status uint16, opaque uint32, cas uint64, extras, value []byte) []byte {
	b := make([]byte, HeaderLen, HeaderLen+len(extras)+len(value))
	WriteHeader(b, Header{Magic: MagicResponse, Opcode: op, ExtrasLen: byte(len(extras)), Status: status,
		BodyLen: uint32(len(extras) + len(value)), Opaque: opaque, CAS: cas})
	return append(append(b, extras...), value...)
}

// getHit is a GET response frame carrying value, flags 0 and no expiry.
func getHit(opaque uint32, cas uint64, value string) []byte {
	return respFrame(OpGet, StatusOK, opaque, cas, make([]byte, GetResponseExtrasLen), []byte(value))
}

// wantFrames fails t unless out is exactly the frames, in order.
func wantFrames(t *testing.T, out []byte, frames ...[]byte) {
	t.Helper()
	if want := bytes.Join(frames, nil); !bytes.Equal(out, want) {
		hdrs, _ := parseResponses(t, out)
		t.Fatalf("responses %+v,\nwant bytes %x", hdrs, want)
	}
}

// TestStampedDeleteLeavesTombstone: a stamped DELETE leaves a tombstone
// at its stamp, whether the key was present (a hit) or absent (a miss),
// with a deadline tombstoneHorizon out; a GET of either misses, and
// curr_items counts them, as it counts an expired entry no lookup has
// reclaimed yet.
func TestStampedDeleteLeavesTombstone(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		_, fc := feed(c, srv,
			BuildSetStamped([]byte("present"), []byte("v"), 0, 1, 100),
			stampedDelete("present", 200, 2),
			stampedDelete("absent", 300, 3),
			BuildGet([]byte("present"), 4),
			BuildGet([]byte("absent"), 5),
		)
		wantFrames(t, fc.out,
			respFrame(OpSet, StatusOK, 1, 100, nil, nil),
			respFrame(OpDelete, StatusOK, 2, 0, nil, nil),
			respFrame(OpDelete, StatusKeyNotFound, 3, 0, nil, nil),
			respFrame(OpGet, StatusKeyNotFound, 4, 0, nil, nil),
			respFrame(OpGet, StatusKeyNotFound, 5, 0, nil, nil),
		)
		for key, stamp := range map[string]uint64{"present": 200, "absent": 300} {
			e, ok := srv.Store.Get(key)
			if !ok || !e.Tombstone() || e.CAS != stamp || len(e.Value) != 0 || e.Expires != c.Now()+tombstoneHorizon {
				t.Errorf("%q holds %+v, want a tombstone at %d until %v", key, e, stamp, c.Now()+tombstoneHorizon)
			}
			if srv.EntryLive(e, c.Now()) {
				t.Errorf("%q's tombstone reads as live", key)
			}
		}
		lines, _ := srv.statLines("", c.Now())
		for _, l := range lines {
			if l.name == "curr_items" && l.value != "2" {
				t.Errorf("curr_items %s, want 2: the tombstones", l.value)
			}
		}
	})
}

// TestTombstoneOrdersStampedWrites: against a tombstone an older stamped
// SET is a no-op that echoes the tombstone's stamp and an older stamped
// ADD fails, as both do against a newer value; a newer SET or ADD
// replaces the tombstone.
func TestTombstoneOrdersStampedWrites(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		add := func(key, value string, stamp uint64, opaque uint32) []byte {
			return storeRequest(OpAdd, []byte(key), []byte(value), 0, stamp).Build(opaque)
		}
		_, fc := feed(c, srv,
			stampedDelete("k", 200, 1),
			BuildSetStamped([]byte("k"), []byte("old"), 0, 2, 150),
			add("k", "old", 150, 3),
			BuildGet([]byte("k"), 4),
			BuildSetStamped([]byte("k"), []byte("new"), 0, 5, 250),
			BuildGet([]byte("k"), 6),
			stampedDelete("k", 300, 7),
			add("k", "added", 350, 8),
			BuildGet([]byte("k"), 9),
		)
		wantFrames(t, fc.out,
			respFrame(OpDelete, StatusKeyNotFound, 1, 0, nil, nil),
			respFrame(OpSet, StatusOK, 2, 200, nil, nil),
			respFrame(OpAdd, StatusKeyExists, 3, 0, nil, nil),
			respFrame(OpGet, StatusKeyNotFound, 4, 0, nil, nil),
			respFrame(OpSet, StatusOK, 5, 250, nil, nil),
			getHit(6, 250, "new"),
			respFrame(OpDelete, StatusOK, 7, 0, nil, nil),
			respFrame(OpAdd, StatusOK, 8, 350, nil, nil),
			getHit(9, 350, "added"),
		)
	})
}

// TestUnstampedOpsIgnoreTombstone: to an unstamped ADD, SET or DELETE a
// tombstone is an absent key, as if the stamped Delete had left nothing:
// the ADD and SET store with CAS minted from the server's own counter,
// and the DELETE misses.
func TestUnstampedOpsIgnoreTombstone(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		srv := NewServer(NewRCUStore(), 1)
		const stamp = 1 << 48
		_, fc := feed(c, srv,
			stampedDelete("a", stamp, 1),
			storeRequest(OpAdd, []byte("a"), []byte("va"), 0, 0).Build(2),
			stampedDelete("s", stamp+1, 3),
			BuildSet([]byte("s"), []byte("vs"), 0, 4),
			stampedDelete("d", stamp+2, 5),
			Request{Opcode: OpDelete, Key: []byte("d")}.Build(6),
			BuildGet([]byte("a"), 7),
			BuildGet([]byte("s"), 8),
		)
		wantFrames(t, fc.out,
			respFrame(OpDelete, StatusKeyNotFound, 1, 0, nil, nil),
			respFrame(OpAdd, StatusOK, 2, 1, nil, nil),
			respFrame(OpDelete, StatusKeyNotFound, 3, 0, nil, nil),
			respFrame(OpSet, StatusOK, 4, 2, nil, nil),
			respFrame(OpDelete, StatusKeyNotFound, 5, 0, nil, nil),
			respFrame(OpDelete, StatusKeyNotFound, 6, 0, nil, nil),
			getHit(7, 1, "va"),
			getHit(8, 2, "vs"),
		)
	})
}

// TestTombstoneReclaimedAfterHorizon: until its deadline a tombstone
// stays, a lookup missing it without reclaiming it, and orders an older
// stamped SET; past it the next lookup reclaims it - counted as no
// expiry, since the key was never visible - and the older SET stores.
func TestTombstoneReclaimedAfterHorizon(t *testing.T) {
	srv := NewServer(NewRCUStore(), 1)
	sc := &serverConn{srv: srv}
	fc := &fakeConn{}
	step := func(c *event.Ctx, want [][]byte, reqs ...[]byte) {
		t.Helper()
		fc.out = nil
		for _, r := range reqs {
			sc.onData(c, fc, wrapBytes(string(r)))
		}
		wantFrames(t, fc.out, want...)
	}
	runTimed(t, 3*tombstoneHorizon, []timedStep{
		{0, func(c *event.Ctx) {
			step(c, [][]byte{respFrame(OpDelete, StatusKeyNotFound, 1, 0, nil, nil)}, stampedDelete("k", 100, 1))
		}},
		{tombstoneHorizon - sim.Millisecond, func(c *event.Ctx) {
			step(c, [][]byte{
				respFrame(OpGet, StatusKeyNotFound, 2, 0, nil, nil),
				respFrame(OpSet, StatusOK, 3, 100, nil, nil),
			}, BuildGet([]byte("k"), 2), BuildSetStamped([]byte("k"), []byte("old"), 0, 3, 50))
			if srv.Store.Len() != 1 {
				t.Fatal("a lookup reclaimed the tombstone before its deadline")
			}
		}},
		{tombstoneHorizon + sim.Millisecond, func(c *event.Ctx) {
			step(c, [][]byte{respFrame(OpGet, StatusKeyNotFound, 4, 0, nil, nil)}, BuildGet([]byte("k"), 4))
			if srv.Store.Len() != 0 || srv.ExpiredReclaimed != 0 || srv.stats.getExpired != 0 {
				t.Fatalf("after the horizon: %d entries, %d reclaimed, %d get_expired; want 0, 0, 0",
					srv.Store.Len(), srv.ExpiredReclaimed, srv.stats.getExpired)
			}
			step(c, [][]byte{
				respFrame(OpSet, StatusOK, 5, 50, nil, nil),
				getHit(6, 50, "old"),
			}, BuildSetStamped([]byte("k"), []byte("old"), 0, 5, 50), BuildGet([]byte("k"), 6))
		}},
	})
}

// TestBoundedStoreChargesTombstone: the bounded store holds a tombstone
// as an item - its key and item header charged to a slab class, counted
// in Items and curr_items - so the budget bounds tombstones too.
func TestBoundedStoreChargesTombstone(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		store := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
		srv := NewServer(store, 1)
		_, fc := feed(c, srv, stampedDelete("gone", 100, 1), BuildGet([]byte("gone"), 2))
		wantFrames(t, fc.out,
			respFrame(OpDelete, StatusKeyNotFound, 1, 0, nil, nil),
			respFrame(OpGet, StatusKeyNotFound, 2, 0, nil, nil),
		)
		st := store.Stats()
		if st.Items != 1 || st.ItemBytes != 64 {
			t.Fatalf("bounded store holds %d items in %d bytes, want the tombstone's 1 in one 64-byte chunk", st.Items, st.ItemBytes)
		}
		lines, _ := srv.statLines("", c.Now())
		for _, l := range lines {
			if l.name == "curr_items" && l.value != "1" {
				t.Errorf("curr_items %s, want 1: the tombstone", l.value)
			}
		}
	})
}
