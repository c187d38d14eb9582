package memcached

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// chunkValue is n bytes that differ from every other seed's.
func chunkValue(n int, seed byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i*13) ^ seed
	}
	return v
}

// chunkSizes straddle a chunk: just under one, one, just over, and many.
var chunkSizes = []int{valueChunk - 1, valueChunk, valueChunk + 1, 70000}

// A warm stream of overwrites whose lengths sweep 1 KiB to 64 KiB over a
// few keys allocates no value: the chunks and rest elements an overwrite
// frees serve the next SET whatever its length. Every request is built
// before the stream starts, so the test's own cost is a descriptor and a
// closure a SET; the stream must allocate under a tenth of the value
// bytes it stores. The class pools this layout replaced kept one element
// a value, in one of 81 classes with one spare each above 16 KiB, and
// allocated 0.36 of the value bytes here.
func TestWarmOverwriteStreamAllocatesNoValues(t *testing.T) {
	bp := newBulkPair(t)
	const keys, sets = 16, 300
	rng := sim.NewRng(1)
	reqs := make([][]byte, 2*sets) // a warm-up, then the measured stream
	stored := 0
	for i := range reqs {
		n := rng.IntRange(1<<10, 64<<10)
		reqs[i] = BuildSet(fmt.Appendf(nil, "sweep%02d", rng.Intn(keys)), chunkValue(n, byte(i)), 0, uint32(i))
		if i >= sets {
			stored += n
		}
	}
	set := func(req []byte) {
		bp.rx = bp.rx[:0]
		bp.Client.Mgrs()[0].Spawn(func(c *event.Ctx) { bp.conn.Send(c, iobuf.Wrap(req)) })
		bp.K.RunFor(5 * sim.Millisecond)
		if hdrs, _ := parseResponses(t, bp.rx); len(hdrs) != 1 || hdrs[0].Status != StatusOK {
			t.Fatalf("SET of the sweep: %d responses", len(hdrs))
		}
	}
	for _, req := range reqs[:sets] {
		set(req)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs[sets:] {
		set(req)
	}
	runtime.ReadMemStats(&m1)
	got := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(stored)
	if got >= 0.1 {
		t.Fatalf("%d warm SETs of 1-64KiB allocated %.3f of the %d value bytes they stored, want under 0.1", sets, got, stored)
	}
	t.Logf("%d warm SETs of 1-64KiB allocated %.3f of the %d value bytes they stored", sets, got, stored)
}

// Every reader of a stored entry reads a chained value as a flat one:
// binary GET, text get and gets, append and prepend across a chunk's
// end, touch, incr and decr (non-numeric, unread), the bounded store's
// charge and the stats' bytes. Each value lies in the elements its length
// calls for, and they are all back once the key is deleted.
func TestChainedValueReaders(t *testing.T) {
	protoHarness(t, func(c *event.Ctx) {
		for _, n := range chunkSizes {
			for name, store := range map[string]Store{"rcu": NewRCUStore(), "bounded": NewBoundedStore(boundedTestBudget, EvictLRU, nil)} {
				srv := NewServer(store, 1)
				ask := func(req []byte) []byte {
					_, fc := feed(c, srv, req)
					return fc.out
				}
				key, want := []byte("k"), chunkValue(n, 1)
				entry := func(what string) *Entry {
					t.Helper()
					e, ok := srv.Store.Get("k")
					switch {
					case !ok:
						t.Fatalf("%d bytes, %s, after %s: k is gone", n, name, what)
					case e.Len() != len(want) || !bytes.Equal(e.AppendValue(nil), want):
						t.Fatalf("%d bytes, %s, after %s: k holds %d bytes, not the %d it should", n, name, what, e.Len(), len(want))
					case elements(e) != lentElements(e) || (e.Value == nil) != (e.Len() >= valueChunk):
						t.Fatalf("%d bytes, %s, after %s: %d elements (Value nil: %v), want %d", n, name, what, elements(e), e.Value == nil, lentElements(e))
					}
					return e
				}
				get := func(what string) {
					t.Helper()
					hdrs, bodies := parseResponses(t, ask(BuildGet(key, 1)))
					if len(hdrs) != 1 || hdrs[0].Status != StatusOK || !bytes.Equal(bodies[0][GetResponseExtrasLen:], want) {
						t.Fatalf("%d bytes, %s, after %s: the GET did not read the value", n, name, what)
					}
				}

				ask(BuildSet(key, want, 0, 1))
				e := entry("set")
				if got := chargeBytes("k", e); got != 1+n+boundedOverhead {
					t.Fatalf("%d bytes, %s: charged %d bytes", n, name, got)
				}
				if b, ok := store.(*BoundedStore); ok {
					flat := NewBoundedStore(boundedTestBudget, EvictLRU, nil)
					flat.Set("k", &Entry{Value: want})
					if got, ref := b.Stats().ItemBytes, flat.Stats().ItemBytes; got != ref {
						t.Fatalf("%d bytes: the bounded store charged the stored value %d bytes, a flat one %d", n, got, ref)
					}
				}
				get("set")
				text := fmt.Sprintf("VALUE k 0 %d", n)
				if got := ask([]byte("get k\r\n")); !bytes.Equal(got, fmt.Appendf(nil, "%s\r\n%s\r\nEND\r\n", text, want)) {
					t.Fatalf("%d bytes, %s: text get read %d bytes", n, name, len(got))
				}
				if got := ask([]byte("gets k\r\n")); !bytes.Equal(got, fmt.Appendf(nil, "%s %d\r\n%s\r\nEND\r\n", text, e.CAS, want)) {
					t.Fatalf("%d bytes, %s: text gets read %d bytes", n, name, len(got))
				}

				if hdrs, _ := parseResponses(t, ask(touchRequest(key, 100).Build(2))); len(hdrs) != 1 || hdrs[0].Status != StatusOK {
					t.Fatalf("%d bytes, %s: touch missed", n, name)
				}
				entry("touch")
				get("touch")
				if hdrs, _ := parseResponses(t, ask(counterRequest(key, 1, 0, 0, true).Build(3))); len(hdrs) != 1 || hdrs[0].Status != StatusDeltaBadval {
					t.Fatalf("%d bytes, %s: binary incr of the value did not answer non-numeric", n, name)
				}
				if got := string(ask([]byte("decr k 1\r\n"))); got != respNonNumeric {
					t.Fatalf("%d bytes, %s: text decr answered %q", n, name, got)
				}
				entry("incr and decr")

				ask(buildConcat(key, []byte("XY"), true, 4))
				want = append(want, "XY"...)
				entry("append")
				get("append")
				ask(buildConcat(key, []byte("AB"), false, 5))
				want = append([]byte("AB"), want...)
				entry("prepend")
				get("prepend")

				ask(Request{Opcode: OpDelete, Key: key}.Build(6))
				if out := valuesOut(srv); out != 0 {
					t.Fatalf("%d bytes, %s: %d value elements out once k is deleted", n, name, out)
				}
			}
		}
	})
}

// A GET in flight holds every element of the chained value it lends. The
// value is overwritten, and two more of its length stored, while the link
// drops every frame that carries it; an element freed at the overwrite
// instead of at acknowledgment is handed to one of them and written. Only
// then are the GET's retransmissions let through, and the reply must be
// byte-exact (under iobufdebug a premature free also reads poisoned).
// Afterwards the pools have out exactly the resident entries' elements.
func TestGetHoldsAChainedValueItsOverwriteFrees(t *testing.T) {
	n, key := chunkSizes[len(chunkSizes)-1], []byte("k")
	v1 := chunkValue(n, 1)
	p := testbed.NewPair(testbed.EbbRT, 1, 2)
	srv := NewServer(NewRCUStore(), 1)
	if err := srv.Serve(p.Server); err != nil {
		t.Fatal(err)
	}
	var rx, rx2 []byte
	conn, conn2 := dialInto(t, p, &rx), dialInto(t, p, &rx2)
	send(p, conn2, BuildSet(key, v1, 0, 1))
	p.K.RunFor(5 * sim.Millisecond)
	e, ok := srv.Store.Get("k")
	if !ok || elements(e) != n/valueChunk+1 {
		t.Fatal("the value was not stored in chunks")
	}
	at := map[*byte]bool{}
	for el := e.elem; ; {
		for i := range el.Data() {
			at[&el.Data()[i]] = true
		}
		if el = el.Next(); el == e.elem {
			break
		}
	}
	holding, dropped, resent := true, 0, 0
	p.Link.DropFn = func(idx uint64, f machine.Frame) bool {
		for el := f.Buf.Next(); el != f.Buf; el = el.Next() {
			if el.Length() > 0 && at[&el.Data()[0]] {
				if holding {
					dropped++
					return true
				}
				resent++
				return false
			}
		}
		return false
	}

	send(p, conn, BuildGet(key, 2))
	p.K.RunFor(sim.Millisecond)
	rx2 = rx2[:0]
	send(p, conn2, BuildSet(key, chunkValue(n, 2), 0, 10),
		BuildSet([]byte("x1"), chunkValue(n, 3), 0, 11), BuildSet([]byte("x2"), chunkValue(n, 4), 0, 12))
	p.K.RunFor(5 * sim.Millisecond)
	if hdrs, _ := parseResponses(t, rx2); len(hdrs) != 3 {
		t.Fatalf("%d responses to the overwrite and the two stores, want 3", len(hdrs))
	}
	holding = false
	p.K.RunFor(2 * sim.Second)

	if dropped == 0 || resent == 0 {
		t.Fatalf("%d frames of the GET dropped, %d resent: the retransmission path did not run", dropped, resent)
	}
	if hdrs, bodies := parseResponses(t, rx); len(hdrs) != 1 || hdrs[0].Status != StatusOK ||
		!bytes.Equal(bodies[0][GetResponseExtrasLen:], v1) {
		t.Fatalf("the GET read %d responses, not the value it was lent", len(hdrs))
	}
	if e, ok := srv.Store.Get("k"); !ok || !bytes.Equal(e.AppendValue(nil), chunkValue(n, 2)) {
		t.Fatal("the overwrite did not store its value")
	}
	if out, resident := valuesOut(srv), sumEntries(srv, elements); out != resident {
		t.Fatalf("%d value elements out for %d that resident entries need", out, resident)
	}
}
