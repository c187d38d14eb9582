package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// keep copies a response out of its callback: a callback's Value is
// lent only until it returns, so a test that checks a response later
// holds this copy instead.
func keep(r Response) *Response {
	r.Value = bytes.Clone(r.Value)
	return &r
}

// getMultiWait drives one GetMulti from the frontend and runs the
// kernel until its callback fires.
func getMultiWait(t *testing.T, cl *Cluster, cli *Client, keys [][]byte) []Response {
	t.Helper()
	var out []Response
	cl.Sys.Frontend().Spawn(func(c *event.Ctx) {
		cli.GetMulti(c, keys, func(c *event.Ctx, rs []Response) {
			out = make([]Response, len(rs))
			for i, r := range rs {
				out[i] = *keep(r)
			}
		})
	})
	k := cl.Sys.K
	deadline := k.Now() + 50*sim.Millisecond
	for out == nil && k.Now() < deadline {
		k.RunFor(250 * sim.Microsecond)
	}
	if out == nil {
		t.Fatal("GetMulti never completed")
	}
	return out
}

// TestGetMultiIndexAlignedHitsAndMisses: one batch mixing present and
// absent keys must come back index-aligned - hits carry their values,
// misses report StatusKeyNotFound (resolved quietly by the fence, never
// as an error) - and the submission queue must actually have coalesced
// the reads into multi-op rounds.
func TestGetMultiIndexAlignedHitsAndMisses(t *testing.T) {
	cl := NewCluster(2, Options{})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})

	var present [][]byte
	for i := 0; i < 6; i++ {
		present = append(present, []byte(fmt.Sprintf("mg-present-%d", i)))
	}
	populate(t, cl, cli, present, func(i int) []byte { return []byte(fmt.Sprintf("mg-val-%d", i)) })

	// Interleave hits and misses so neither backend's round is uniform.
	var keys [][]byte
	for i, key := range present {
		keys = append(keys, key, []byte(fmt.Sprintf("mg-absent-%d", i)))
	}
	rs := getMultiWait(t, cl, cli, keys)
	if len(rs) != len(keys) {
		t.Fatalf("%d responses for %d keys", len(rs), len(keys))
	}
	for i, r := range rs {
		if i%2 == 0 { // present slots
			want := fmt.Sprintf("mg-val-%d", i/2)
			if !r.OK() || string(r.Value) != want {
				t.Fatalf("slot %d (%s): status %#x value %q, want %q", i, keys[i], r.Status, r.Value, want)
			}
		} else if r.Status != memcached.StatusKeyNotFound {
			t.Fatalf("slot %d (%s): status %#x, want StatusKeyNotFound", i, keys[i], r.Status)
		}
	}
	bs := cli.BatchStats()
	if bs.Batches == 0 {
		t.Fatalf("12-key GetMulti formed no multi-op round: %+v", bs)
	}
	if bs.QuietMisses != 6 {
		t.Fatalf("%d quiet misses, want 6: %+v", bs.QuietMisses, bs)
	}
}

// TestGetMultiDuplicateKeysAnsweredIndependently: the same key listed
// several times in one batch occupies several slots of one pipelined
// round (distinct opaques on one GETQ each) and every slot must resolve
// on its own - duplicates of a hit all carry the value, duplicates of a
// miss all resolve through the fence.
func TestGetMultiDuplicateKeysAnsweredIndependently(t *testing.T) {
	cl := NewCluster(2, Options{})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})
	key := []byte("mg-dup-key")
	populate(t, cl, cli, [][]byte{key}, func(int) []byte { return []byte("dup-val") })

	gone := []byte("mg-dup-gone")
	rs := getMultiWait(t, cl, cli, [][]byte{key, gone, key, gone, key})
	for _, i := range []int{0, 2, 4} {
		if !rs[i].OK() || string(rs[i].Value) != "dup-val" {
			t.Fatalf("duplicate slot %d: status %#x value %q", i, rs[i].Status, rs[i].Value)
		}
	}
	for _, i := range []int{1, 3} {
		if rs[i].Status != memcached.StatusKeyNotFound {
			t.Fatalf("duplicate miss slot %d: status %#x, want StatusKeyNotFound", i, rs[i].Status)
		}
	}
	if bs := cli.BatchStats(); bs.QuietMisses != 2 {
		t.Fatalf("%d quiet misses for 2 duplicated absent slots: %+v", bs.QuietMisses, bs)
	}
}

// TestGetMultiMixedHotCacheHitsAndMisses: a batch whose members split
// between the core's hot-key cache and the network must answer the
// cached key locally (no backend read) while the rest coalesce into one
// round, misses resolving quietly through the fence.
func TestGetMultiMixedHotCacheHitsAndMisses(t *testing.T) {
	cl, cli := newHotCluster(1, HotKeyOptions{PromoteMin: 1, ttl: sim.Second})
	front := cl.Sys.Frontend()
	hot, cold := []byte("mg-hot-key"), []byte("mg-cold-key")
	populate(t, cl, cli, [][]byte{hot, cold}, func(i int) []byte { return []byte(fmt.Sprintf("hv-%d", i)) })

	// Warm the hot key on core 0: promote (first read) then fill.
	warm := 0
	front.Spawn(func(c *event.Ctx) {
		cli.Get(c, hot, func(c *event.Ctx, r Response) {
			cli.Get(c, hot, func(c *event.Ctx, r Response) {
				if r.OK() {
					warm++
				}
			})
		})
	})
	cl.Sys.K.RunFor(20 * sim.Millisecond)
	if warm != 1 || cli.HotKeyStats().Fills == 0 {
		t.Fatalf("warmup did not fill the cache: warm=%d stats=%+v", warm, cli.HotKeyStats())
	}
	hitsBefore, opsBefore := cli.HotKeyStats().Hits, cli.BatchStats().Ops

	rs := getMultiWait(t, cl, cli, [][]byte{hot, []byte("mg-absent-a"), cold, []byte("mg-absent-b")})
	if !rs[0].OK() || string(rs[0].Value) != "hv-0" {
		t.Fatalf("hot slot: status %#x value %q", rs[0].Status, rs[0].Value)
	}
	if !rs[2].OK() || string(rs[2].Value) != "hv-1" {
		t.Fatalf("cold slot: status %#x value %q", rs[2].Status, rs[2].Value)
	}
	for _, i := range []int{1, 3} {
		if rs[i].Status != memcached.StatusKeyNotFound {
			t.Fatalf("absent slot %d: status %#x", i, rs[i].Status)
		}
	}
	if hits := cli.HotKeyStats().Hits; hits != hitsBefore+1 {
		t.Fatalf("hot slot not served from cache: hits %d -> %d", hitsBefore, hits)
	}
	// The cached member never reached the queue: 3 network reads, one
	// 3-op round on the single backend.
	bs := cli.BatchStats()
	if bs.Ops-opsBefore != 3 {
		t.Fatalf("%d reads submitted, want 3 (cache hit must not hit the network)", bs.Ops-opsBefore)
	}
	if bs.OpsPerBatch[1] == 0 { // the 2-3 bucket
		t.Fatalf("mixed round not coalesced: %+v", bs)
	}
}

// TestGetMultiBackendDeathNoFalseMisses: a backend dying while batched
// rounds are in flight must fail the whole round over to the replicas -
// every key still reads back its value, and none of the interrupted
// round's members may be reported as a cache miss (the fence only
// resolves misses when it returns OK, so a torn-down round fails as a
// network error and retries).
func TestGetMultiBackendDeathNoFalseMisses(t *testing.T) {
	cl := NewCluster(4, Options{Replicas: 2})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	k := cl.Sys.K

	const nKeys = 64
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mg-death-%d", i))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("dv-%d", i)) })

	// Waves of 8-key batches every 500us; the victim dies mid-stream, so
	// some rounds are interrupted in flight and later waves fail fast on
	// the evicted entry.
	var ok, miss, netErr, bad int
	issued := 0
	for w := 0; w < 10; w++ {
		w := w
		k.After(sim.Time(w)*500*sim.Microsecond, func() {
			front.Spawn(func(c *event.Ctx) {
				batch := make([][]byte, 8)
				idx := make([]int, 8)
				for j := 0; j < 8; j++ {
					idx[j] = (w*8 + j) % nKeys
					batch[j] = keys[idx[j]]
				}
				issued += 8
				cli.GetMulti(c, batch, func(c *event.Ctx, rs []Response) {
					for j, r := range rs {
						switch {
						case r.OK():
							ok++
							if string(r.Value) != fmt.Sprintf("dv-%d", idx[j]) {
								bad++
							}
						case r.NetworkError():
							netErr++
						default:
							miss++
						}
					}
				})
			})
		})
	}
	k.After(2200*sim.Microsecond, func() {
		cl.Backends[0].Node.Kill()
		cl.EvictBackend(0)
	})
	k.RunFor(100 * sim.Millisecond)

	if issued != 80 || ok+miss+netErr != issued {
		t.Fatalf("%d of %d batched reads completed (ok=%d miss=%d netErr=%d)", ok+miss+netErr, issued, ok, miss, netErr)
	}
	// The invariant under test: death never manufactures a miss, and
	// with a live replica for every key, every read must recover.
	if miss != 0 {
		t.Fatalf("%d false misses after backend death (ok=%d netErr=%d)", miss, ok, netErr)
	}
	if netErr != 0 || ok != issued {
		t.Fatalf("reads did not fail over: ok=%d netErr=%d of %d", ok, netErr, issued)
	}
	if bad != 0 {
		t.Fatalf("%d reads returned the wrong value", bad)
	}
}

// TestGetMultiAcrossHandoffWindow: batches issued while a migration's
// handoff window is open must read every key correctly - members inside
// a pending moved range consult the dual read set (old owners first,
// then new) instead of trusting either ring alone, so a batch spanning
// the window sees neither false misses nor stale routing.
func TestGetMultiAcrossHandoffWindow(t *testing.T) {
	cl := NewCluster(2, Options{FrontendCores: 2})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{})
	m := NewMigrator(cl, front)

	const nKeys = 120
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mg-window-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("wv-%d", i)) })

	var moved []MoveRange
	cl.WatchHandoff(func(pending []MoveRange) {
		moved = append([]MoveRange(nil), pending...)
	})
	m.Join(1)
	if len(moved) == 0 {
		t.Fatal("join opened no handoff window")
	}

	// Mid-window: every key read through batched multigets; count how
	// many members actually route through the dual read set.
	got := make([]string, nKeys)
	completed, dualReads := 0, 0
	windowOpen := false
	front.Spawn(func(c *event.Ctx) {
		windowOpen = cl.handoff != nil
		for _, key := range keys {
			if len(cl.ReadSet(key)) > 1 {
				dualReads++
			}
		}
		for at := 0; at < nKeys; at += 8 {
			at := at
			cli.GetMulti(c, keys[at:at+8], func(c *event.Ctx, rs []Response) {
				for j, r := range rs {
					if r.OK() {
						got[at+j] = string(r.Value)
					} else {
						got[at+j] = fmt.Sprintf("status-%#x", r.Status)
					}
					completed++
				}
			})
		}
	})
	cl.Sys.K.RunFor(20 * sim.Millisecond)
	waitMigration(t, cl, m, 300*sim.Millisecond)

	if !windowOpen {
		t.Fatal("batches did not run inside the handoff window")
	}
	if dualReads == 0 {
		t.Fatal("no batch member fell inside a moved range (dual read set never consulted)")
	}
	if completed != nKeys {
		t.Fatalf("%d of %d mid-window batched reads completed", completed, nKeys)
	}
	for i, v := range got {
		if want := fmt.Sprintf("wv-%d", i); v != want {
			t.Fatalf("mid-window key %d read %q, want %q", i, v, want)
		}
	}
	// After cutover the same batches must still read clean off the new ring.
	if ok, miss, netErr := readAll(cl, cli, keys); ok != nKeys || miss != 0 || netErr != 0 {
		t.Fatalf("post-cutover: %d ok %d miss %d netErr", ok, miss, netErr)
	}
}

// TestGetMultiBatchFlushAudited: every multi-op round the submission
// queue flushes surfaces as a frontend.batch_flush audit event carrying
// the backend, the op count, and the bytes written - so batch formation
// is assertable in the same event-sequence style as the chaos tests.
func TestGetMultiBatchFlushAudited(t *testing.T) {
	tape := new(audit.Tape)
	cl := NewCluster(2, Options{Audit: audit.NewLog(tape)})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})

	keys := make([][]byte, 12)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mg-audit-%d", i))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte("av") })

	mark := len(*tape)
	getMultiWait(t, cl, cli, keys)

	x := audit.ExpectEvents((*tape)[mark:])
	flushes := x.Count(audit.On(audit.FrontendBatchFlush))
	if flushes == 0 {
		t.Fatal("batched GetMulti emitted no frontend.batch_flush event")
	}
	// Single-op rounds are the plain GET spine and must NOT be audited
	// as flushes: every event is multi-op with a real payload, on a
	// backend that exists.
	wellFormed := x.Count(audit.On(audit.FrontendBatchFlush).Filter(func(e audit.Event) bool {
		ops, okOps := e.Fields["ops"].(int)
		bytes, okBytes := e.Fields["bytes"].(int)
		backend, okB := e.Fields["backend"].(int)
		return okOps && okBytes && okB && ops >= 2 && bytes > ops*memcached.HeaderLen && backend >= 0 && backend < 2
	}))
	if wellFormed != flushes {
		ev, _ := x.First(audit.On(audit.FrontendBatchFlush))
		t.Fatalf("%d of %d flush events well-formed; first: %+v", wellFormed, flushes, ev)
	}
	// The rounds seen on the wire are the rounds the queue says it
	// flushed.
	if bs := cli.BatchStats(); int(bs.Batches) != flushes {
		t.Fatalf("audit saw %d flushes, queue counted %d multi-op rounds", flushes, bs.Batches)
	}
}
