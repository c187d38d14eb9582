package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// The object count of the hosted write path, held in tier-1: one warm
// 100-byte quorum Set from a 2-core GPOS frontend to three replicas, end
// to end - the client's three request frames, each socket's write() and
// read() copies, three backends' stacks and servers, the acknowledgments
// and the quorum fold. With the hot-key cache off it allocated 18 objects
// (45 while the client built each frame in a fresh slice behind a fresh
// descriptor, the servers did the same with each response, and the
// socket's two copies and the wakeup closure were allocated per call):
// the test's closure, the replica set, the quorum call and its
// per-replica callbacks, and on each replica the stored entry, its
// value, its key and the table's slot. With the cache on it allocated
// 26: the write's wrapper closure and value copy, and for the
// invalidation and the re-stamp each a key copy, a closure for the
// other core's spawned event and the closure it runs. A pooled write
// record brings both to 13: the test's closure and the replicas' four
// each; servers whose lookups borrow the request's key bytes, to 10 (the
// entry, its value copy and the table's node on each replica). Over
// bounded stores, with a 3,000-byte value, a Set allocated 13
// too, but for other reasons: each replica's entry and value copy, and
// the client's three requests, each longer than one payload element, in
// a fresh buffer behind a fresh descriptor. Stores that copy the entry
// into their resident LRU item and requests whose value spans pooled
// elements bring it to 4: the test's closure and the three value copies.
// Servers that copy a value a GET may lend into an element of their value
// pools, where the element of the value it overwrites goes back, bring it
// to 1, the test's closure. A 100-byte Set over bounded stores makes 1
// too: each replica's store copies the short value into a buffer the
// value it overwrites left behind. The limit is the measured count plus
// 4, so one buffer per frame or per copy coming back fails here, not only
// in the benchmark's cl_write.
// Under iobufdebug each event's own Ctx is allowed for, and so is every
// record the free lists build instead of reusing.
//
// The warm-up runs 300 Sets, 300 ms of virtual time: past the span of
// the kernel's timing wheel (16.8 ms), whose slots grow as it first
// turns over, so that growth is not counted as the write's.
func TestQuorumWriteObjectBudget(t *testing.T) {
	bounded := func() memcached.Store { return memcached.NewBoundedStore(64<<20, memcached.EvictLRU, nil) }
	for _, tc := range []struct {
		name  string
		hot   HotKeyOptions
		store func() memcached.Store
		size  int
		limit float64
	}{
		{"cold", HotKeyOptions{}, nil, 100, 10 + 4},
		{"hot", HotKeyOptions{Enable: true}, nil, 100, 10 + 4},
		{"bounded-long", HotKeyOptions{}, bounded, 3000, 1 + 4},
		{"bounded-short", HotKeyOptions{}, bounded, 100, 1 + 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := NewCluster(3, Options{CoresPerBackend: 2, FrontendCores: 2, Replicas: 3, HotKey: tc.hot, Store: tc.store})
			front := cl.Sys.Frontend()
			cli := NewClientWithOptions(cl, front, ClientOptions{})
			key, value := []byte("budget"), bytes.Repeat([]byte("v"), tc.size)
			acked := 0
			done := func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			}
			set := func() {
				front.Spawn(func(c *event.Ctx) { cli.Set(c, key, value, 0, done) })
				cl.Sys.K.RunFor(sim.Millisecond)
			}
			for range 300 { // warm: connections, pools, rings, queues, wheel and free lists at their size
				set()
			}
			limit := tc.limit
			if event.CheckedCtx {
				limit += checkedAllowance(cl, cli, set)
			}
			before := acked
			got := testing.AllocsPerRun(100, set)
			if acked-before != 101 {
				t.Fatalf("%d of 101 quorum writes acknowledged", acked-before)
			}
			if got > limit {
				t.Fatalf("one quorum Set allocated %.0f objects, want at most %.0f", got, limit)
			}
			t.Logf("one quorum Set allocated %.0f objects (limit %.0f)", got, limit)
		})
	}
}

// The object count of the hosted read path, held in tier-1: one warm
// 8-key GetMulti from a 1-core hosted frontend to four backends at R=2,
// hot-key cache on, end to end. Cold, no key is ever promoted and all
// eight go to the network; promoted, the cache holds four of the eight
// keys, so each GetMulti serves four from it and fills the other four,
// each fill evicting one entry. The count was 78 cold and
// 67 promoted while every key read allocated a slot closure, a
// replica slice, a retry closure with its escaped arguments and a key
// copy for the queue, each promotion a key copy and a wrapper closure,
// each fill a new cache entry, and each multi-op round its tracker and
// fence callback. Pooled read records, rounds and GetMulti calls brought
// it to 18 both ways, and server lookups that borrow the request's key
// bytes to 10 cold and 14 promoted: the test's closure, the caller's
// response slice, each network answer's value copy, and each fill's key
// string and value copy. Answers lent for the callback, slot buffers the
// GetMulti call keeps, and cache entries that keep their key and value
// buffers bring both to 1, the test's closure. The limit is the measured
// count plus 4. Under iobufdebug each event's own Ctx is allowed for,
// and so is every record, round and call the free lists build instead of
// reusing.
func TestMultiGetObjectBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hot   HotKeyOptions
		limit float64
	}{
		{"cold", HotKeyOptions{Enable: true, PromoteMin: 1 << 30, revalidateEvery: -1}, 1 + 4},
		{"promoted", HotKeyOptions{Enable: true, PromoteMin: 1, capacity: 4, ttl: sim.Second, revalidateEvery: -1}, 1 + 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([][]byte, 8)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("budget-mget-%d", i))
			}
			answered := 0
			done := func(c *event.Ctx, rs []Response) {
				for _, r := range rs {
					if r.OK() {
						answered++
					}
				}
			}
			readBudget(t, "one 8-key GetMulti", tc.hot, keys, tc.limit, &answered,
				func(c *event.Ctx, cli *Client) { cli.GetMulti(c, keys, done) })
		})
	}
}

// The object count of one warm single-key Get, held as the GetMulti
// count is: over the network, and as a hit in the hot-key cache. The
// answer is lent to the callback - the receive bytes or the cache
// entry's own buffer - so either way a read allocates only the test's
// closure. The limit is the measured count plus 4.
func TestGetObjectBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hot   HotKeyOptions
		limit float64
		hits  bool
	}{
		{"network", HotKeyOptions{Enable: true, PromoteMin: 1 << 30, revalidateEvery: -1}, 1 + 4, false},
		{"hit", HotKeyOptions{Enable: true, PromoteMin: 1, ttl: sim.Second, revalidateEvery: -1}, 1 + 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := []byte("budget-get")
			answered := 0
			done := func(c *event.Ctx, r Response) {
				if r.OK() {
					answered++
				}
			}
			cli := readBudget(t, "one Get", tc.hot, [][]byte{key}, tc.limit, &answered,
				func(c *event.Ctx, cli *Client) { cli.Get(c, key, done) })
			if hits := cli.HotKeyStats().Hits > 0; hits != tc.hits {
				t.Fatalf("cache hits %+v, want hits: %v", cli.HotKeyStats(), tc.hits)
			}
		})
	}
}

// readBudget stores keys on four backends at R=2 behind a 1-core hosted
// frontend whose client caches as hot says, warms read as the write
// budget does, and fails unless one read allocates at most limit objects
// (plus, under iobufdebug, what that build adds) and answers every key
// OK, counted through answered. It returns the client.
func readBudget(t *testing.T, what string, hot HotKeyOptions, keys [][]byte, limit float64, answered *int, read func(c *event.Ctx, cli *Client)) *Client {
	t.Helper()
	cl := NewCluster(4, Options{FrontendCores: 1, Replicas: 2, HotKey: hot})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{})
	populate(t, cl, cli, keys, func(i int) []byte { return bytes.Repeat([]byte{'a' + byte(i)}, 100) })
	op := func() {
		front.Spawn(func(c *event.Ctx) { read(c, cli) })
		cl.Sys.K.RunFor(sim.Millisecond)
	}
	for range 300 { // warm, as the write budget does
		op()
	}
	if event.CheckedCtx {
		limit += checkedAllowance(cl, cli, op)
	}
	before := *answered
	got := testing.AllocsPerRun(100, op)
	if *answered-before != 101*len(keys) {
		t.Fatalf("%d of %d key reads answered", *answered-before, 101*len(keys))
	}
	if got > limit {
		t.Fatalf("%s allocated %.0f objects, want at most %.0f", what, got, limit)
	}
	t.Logf("%s allocated %.0f objects (limit %.0f)", what, got, limit)
	return cli
}

// checkedAllowance runs op once and returns what iobufdebug adds to its
// object count: a Ctx per dispatched event, and per record, round or
// call the free lists of any frontend core build rather than reuse, the
// object, its bound callbacks and its key, value or member slices - for
// a GetMulti call its response and slot slices, and for each key read
// the value buffer of the slot it may answer.
func checkedAllowance(cl *Cluster, cli *Client, op func()) float64 {
	count := func() (n int) {
		for _, node := range cl.Sys.Nodes {
			for _, m := range node.Runtime.Mgrs() {
				n += int(m.Dispatched)
			}
		}
		for corei := range cli.mgrs {
			if rep, ok := cli.ref.GetIfPresent(corei); ok {
				n += 4*rep.reads.Made() + 3*rep.rounds.Made() + 3*rep.batches.Made() + 9*rep.writes.Made()
			}
		}
		return n
	}
	before := count()
	op()
	return float64(count() - before)
}
