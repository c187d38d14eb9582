package cluster

import (
	"bytes"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// The object count of the hosted write path, held in tier-1: one warm
// 100-byte quorum Set from a 2-core GPOS frontend to three replicas, end
// to end - the client's three request frames, each socket's write() and
// read() copies, three backends' stacks and servers, the acknowledgments
// and the quorum fold - allocates 18 objects (45 while the client built
// each frame in a fresh slice behind a fresh descriptor, the servers did
// the same with each response, and the socket's two copies and the wakeup
// closure were allocated per call): the test's closure, the replica set,
// the quorum call and its per-replica callbacks, and on each replica the
// stored entry, its value, its key and the table's slot. The limit is the
// measured count plus 4, so one buffer per frame or per copy coming back
// fails here, not only in the benchmark's cl_write. Under iobufdebug each
// event's own Ctx is allowed for.
func TestQuorumWriteObjectBudget(t *testing.T) {
	limit := 18.0 + 4
	cl := NewCluster(3, Options{CoresPerBackend: 2, FrontendCores: 2, Replicas: 3})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{})
	key, value := []byte("budget"), bytes.Repeat([]byte("v"), 100)
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
	set() // warm: connections, pools, rings and queues at their size
	set()
	if event.CheckedCtx {
		dispatched := func() (n uint64) {
			for _, node := range cl.Sys.Nodes {
				for _, m := range node.Runtime.Mgrs() {
					n += m.Dispatched
				}
			}
			return n
		}
		before := dispatched()
		set()
		limit += float64(dispatched() - before)
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
}
