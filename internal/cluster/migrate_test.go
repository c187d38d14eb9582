package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// planKeys samples keys for plan-exactness checks.
func planKeys(n int) [][]byte { return sampleKeys(n) }

// gained computes the set of backends newly owning key under the given
// rings - the ground truth a migration plan must reproduce exactly.
func gained(old, new *Ring, key []byte, replicas int) map[int]bool {
	oldSet := map[int]bool{}
	for _, b := range old.LookupN(key, replicas) {
		oldSet[b] = true
	}
	out := map[int]bool{}
	for _, b := range new.LookupN(key, replicas) {
		if !oldSet[b] {
			out[b] = true
		}
	}
	return out
}

// checkPlanExact asserts, for every sampled key, that the plan's
// coverage equals the old-vs-new owner diff: each gaining backend is
// covered by exactly one range (nothing migrated twice), and no key
// outside the diff is covered (nothing migrated spuriously), and every
// range's sources are the key's old owners (the data is actually
// there).
func checkPlanExact(t *testing.T, old, new *Ring, plan []MoveRange, replicas int, keys [][]byte) int {
	t.Helper()
	moved := 0
	for _, key := range keys {
		h := ringHash(key)
		want := gained(old, new, key, replicas)
		got := map[int]int{}
		for _, r := range plan {
			if r.Contains(h) {
				got[r.Dest]++
				oldSet := old.LookupN(key, replicas)
				if !equalBackends(r.Sources, oldSet) {
					t.Fatalf("key %q: range sources %v != old owners %v", key, r.Sources, oldSet)
				}
			}
		}
		for d, n := range got {
			if n > 1 {
				t.Fatalf("key %q migrated to backend %d by %d distinct ranges", key, d, n)
			}
			if !want[d] {
				t.Fatalf("key %q migrated to backend %d which it did not gain", key, d)
			}
		}
		for d := range want {
			if got[d] == 0 {
				t.Fatalf("key %q gained backend %d but no range covers it (dropped)", key, d)
			}
		}
		if len(want) > 0 {
			moved++
		}
	}
	return moved
}

// TestMigrationPlanExactRandomRings: over randomized ring shapes, the
// plan of an add (and of a remove) is exactly the ownership diff - no
// key migrated twice, none dropped - and an R=1 add moves a key share
// bounded near 1/(n+1), the consistent-hashing bound
// TestRingMigrationBounded asserts for raw lookups.
func TestMigrationPlanExactRandomRings(t *testing.T) {
	rng := sim.NewRng(7)
	keys := planKeys(4000)
	for trial := 0; trial < 12; trial++ {
		n := rng.IntRange(1, 8)
		vnodes := rng.IntRange(8, 160)
		replicas := rng.IntRange(1, 3)
		if replicas > n {
			replicas = n
		}
		old := NewRing(vnodes)
		for b := 0; b < n; b++ {
			old.Add(b)
		}

		// Add a backend.
		added := old.Clone()
		added.Add(n)
		plan := PlanMigration(old, added, replicas)
		moved := checkPlanExact(t, old, added, plan, replicas, keys)
		if moved == 0 {
			t.Fatalf("trial %d (n=%d vnodes=%d R=%d): add moved no keys", trial, n, vnodes, replicas)
		}
		if replicas == 1 {
			ideal := float64(len(keys)) / float64(n+1)
			if float64(moved) > 2*ideal {
				t.Errorf("trial %d (n=%d vnodes=%d): add plan moves %d keys, more than 2x ideal %.0f",
					trial, n, vnodes, moved, ideal)
			}
		}

		// Remove a backend (skip when it would empty the ring).
		if n < 2 {
			continue
		}
		victim := rng.IntRange(0, n-1)
		removed := old.Clone()
		removed.Remove(victim)
		rplan := PlanMigration(old, removed, replicas)
		if checkPlanExact(t, old, removed, rplan, replicas, keys) == 0 && replicas <= n-1 {
			t.Fatalf("trial %d: remove of backend %d moved no keys", trial, victim)
		}
	}
}

// TestMigrationPlanEpochAndClone: membership changes bump the ring
// epoch, and a clone is independent of the original.
func TestMigrationPlanEpochAndClone(t *testing.T) {
	r := NewRing(0)
	if r.Epoch() != 0 {
		t.Fatalf("fresh ring epoch %d", r.Epoch())
	}
	r.Add(0)
	r.Add(1)
	if r.Epoch() != 2 {
		t.Fatalf("epoch %d after two adds", r.Epoch())
	}
	snap := r.Clone()
	r.Remove(1)
	if r.Epoch() != 3 || snap.Epoch() != 2 {
		t.Fatalf("epochs: live %d snap %d", r.Epoch(), snap.Epoch())
	}
	if len(snap.Members()) != 2 || len(r.Members()) != 1 {
		t.Fatalf("clone not independent: snap members %v live %v", snap.Members(), r.Members())
	}
}

// populate writes keys through the client at quorum and fails the test
// unless every write acked.
func populate(t *testing.T, cl *Cluster, cli *Client, keys [][]byte, val func(i int) []byte) {
	t.Helper()
	front := cl.Sys.Frontend()
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			cli.Set(c, key, val(i), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	cl.Sys.K.RunUntil(cl.Sys.K.Now() + 40*sim.Millisecond)
	if acked != len(keys) {
		t.Fatalf("populate: %d of %d quorum writes acked", acked, len(keys))
	}
}

// waitMigration runs the kernel until the migrator goes idle.
func waitMigration(t *testing.T, cl *Cluster, m *Migrator, limit sim.Time) *Migration {
	t.Helper()
	k := cl.Sys.K
	deadline := k.Now() + limit
	for m.Active() && k.Now() < deadline {
		k.RunFor(1 * sim.Millisecond)
	}
	if m.Active() {
		t.Fatalf("migration still active after %v", limit)
	}
	if m.Last() == nil {
		t.Fatal("no migration ran")
	}
	return m.Last()
}

// readAll gets every key through the client and reports
// (hits, misses, network errors).
func readAll(cl *Cluster, cli *Client, keys [][]byte) (ok, miss, netErr int) {
	front := cl.Sys.Frontend()
	front.Spawn(func(c *event.Ctx) {
		for _, key := range keys {
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				switch {
				case r.OK():
					ok++
				case r.NetworkError():
					netErr++
				default:
					miss++
				}
			})
		}
	})
	k := cl.Sys.K
	deadline := k.Now() + 40*sim.Millisecond
	for ok+miss+netErr < len(keys) && k.Now() < deadline {
		k.RunFor(250 * sim.Microsecond)
	}
	return ok, miss, netErr
}

// TestJoinStreamsKeyShare: joining through the migrator moves the new
// backend's exact key share onto it - afterwards every key reads OK
// with the handoff window closed, the newcomer's store holds precisely
// its ring share, and the stream moved a bounded fraction of the
// keyspace.
func TestJoinStreamsKeyShare(t *testing.T) {
	tape := new(audit.Tape)
	cl := NewCluster(3, Options{Audit: audit.NewLog(tape)})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("join-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("v-%d", i)) })

	epochBefore := cl.Ring.Epoch()
	m.Join(1)
	if cl.Ring.Epoch() != epochBefore+1 {
		t.Fatalf("join did not bump the ring epoch: %d -> %d", epochBefore, cl.Ring.Epoch())
	}
	if !cl.Migrating() {
		t.Fatal("no handoff window open right after Join")
	}
	mig := waitMigration(t, cl, m, 200*sim.Millisecond)
	if mig.Aborted || mig.Kind != "join" {
		t.Fatalf("migration %+v not a completed join", mig)
	}
	if cl.Migrating() {
		t.Fatal("handoff window still open after migration completed")
	}
	if mig.Moved == 0 {
		t.Fatal("join streamed no entries")
	}
	if mig.Moved > nKeys {
		t.Fatalf("join streamed %d entries for a %d-key population", mig.Moved, nKeys)
	}

	// The audit trail tells the same story, in order: the run started,
	// every job fenced and cut over, and the migration concluded clean.
	x := audit.ExpectEvents(*tape)
	if err := x.Seq(
		audit.On(audit.MigrationStart),
		audit.On(audit.MigrationFence),
		audit.On(audit.MigrationCutover),
		audit.On(audit.MigrationDone),
	); err != nil {
		t.Fatalf("join sequence: %v", err)
	}
	if fences, cuts := x.Count(audit.On(audit.MigrationFence)), x.Count(audit.On(audit.MigrationCutover)); fences != cuts {
		t.Fatalf("%d fence events vs %d cutover events", fences, cuts)
	}
	if n := x.Count(audit.On(audit.MigrationAbort)); n != 0 {
		t.Fatalf("clean join emitted %d abort events", n)
	}
	if done, ok := x.Last(audit.On(audit.MigrationDone)); !ok || done.Fields["moved"] != mig.Moved {
		t.Fatalf("migration.done fields %v disagree with Moved=%d", done.Fields, mig.Moved)
	}

	// Every key still reads OK, with no dual-routing left to help.
	ok, miss, netErr := readAll(cl, cli, keys)
	if ok != nKeys || miss != 0 || netErr != 0 {
		t.Fatalf("post-join reads: %d ok, %d misses, %d net errors (want %d/0/0)", ok, miss, netErr, nKeys)
	}

	// The newcomer holds exactly the keys the new ring assigns it.
	newIdx := len(cl.Backends) - 1
	store := cl.Backends[newIdx].Srv.Store
	for _, key := range keys {
		_, has := store.Get(string(key))
		owned := false
		for _, b := range cl.ReplicaSet(key) {
			if b == newIdx {
				owned = true
			}
		}
		if owned && !has {
			t.Fatalf("key %q owned by the newcomer but not streamed to it", key)
		}
		if !owned && has {
			t.Fatalf("key %q streamed to the newcomer without ownership", key)
		}
	}
}

// TestJoinStreamsChainedValues: the migration stream copies out values of
// a chunk's length and more, which a backend stores as chains of chunks,
// and the newcomer holds each byte for byte.
func TestJoinStreamsChainedValues(t *testing.T) {
	cl := NewCluster(3, Options{})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)
	sizes := []int{4095, 4096, 4097, 70000}
	keys := make([][]byte, 48)
	value := func(i int) []byte {
		v := make([]byte, sizes[i%len(sizes)])
		for j := range v {
			v[j] = byte(i + j*7)
		}
		return v
	}
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chain-key-%d", i))
	}
	populate(t, cl, cli, keys, value)
	m.Join(1)
	if mig := waitMigration(t, cl, m, 200*sim.Millisecond); mig.Aborted || mig.Moved == 0 {
		t.Fatalf("migration %+v streamed nothing", mig)
	}
	store, streamed := cl.Backends[len(cl.Backends)-1].Srv.Store, 0
	for i, key := range keys {
		if e, ok := store.Get(string(key)); ok {
			if got := e.AppendValue(nil); e.Len() != len(got) || !bytes.Equal(got, value(i)) {
				t.Fatalf("key %q: the newcomer holds %d bytes, not the %d-byte value", key, e.Len(), len(value(i)))
			}
			streamed++
		}
	}
	if streamed == 0 {
		t.Fatal("no value reached the newcomer")
	}
}

// TestDeleteDuringHandoffNotResurrected: a key quorum-deleted while its
// range is still streaming must stay deleted after the cutover, even
// though the migration stream carries a pre-delete snapshot of it - the
// Delete, dual-routed to the destination, left a tombstone there that
// the stream's older copy cannot displace. A key deleted and then re-set
// during the window must keep its new value.
func TestDeleteDuringHandoffNotResurrected(t *testing.T) {
	cl := NewCluster(3, Options{})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	// Slow the stream so the deletes land while it is in flight.
	m := NewMigrator(cl, front)
	m.perEntryCPU, m.jobTimeout = 30*sim.Microsecond, 15*sim.Millisecond
	k := cl.Sys.K

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("del-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("v-%d", i)) })

	var deleted [][]byte
	var reset []byte
	joinAt := k.Now() + 2*sim.Millisecond
	k.At(joinAt, func() { m.Join(1) })
	k.At(joinAt+300*sim.Microsecond, func() {
		if cl.handoff == nil {
			t.Fatal("migration already finished before the deletes - stream too fast for the test")
		}
		// Pick keys still inside pending moved ranges: the stream's
		// snapshot has them, the deletes race it.
		for _, key := range keys {
			if cl.handoff.covers(ringHash(key)) {
				deleted = append(deleted, key)
				if len(deleted) == 12 {
					break
				}
			}
		}
		if len(deleted) < 2 {
			t.Fatalf("only %d keys in pending ranges", len(deleted))
		}
		reset = deleted[len(deleted)-1]
		front.Spawn(func(c *event.Ctx) {
			for _, key := range deleted[:len(deleted)-1] {
				cli.Delete(c, key, nil)
			}
			// One key is re-created once its delete has acked: the
			// newer value must survive the stream.
			cli.Delete(c, reset, func(c *event.Ctx, r Response) {
				cli.Set(c, reset, []byte("fresh-after-delete"), 0, nil)
			})
		})
	})

	k.RunUntil(joinAt + 500*sim.Microsecond) // past the join and the racing deletes
	mig := waitMigration(t, cl, m, 300*sim.Millisecond)
	if mig.Aborted {
		t.Fatal("migration aborted")
	}
	gone := map[string]bool{}
	for _, key := range deleted[:len(deleted)-1] {
		gone[string(key)] = true
	}
	misses, resurrected, freshOK := 0, 0, false
	front.Spawn(func(c *event.Ctx) {
		for key := range gone {
			key := key
			cli.Get(c, []byte(key), func(c *event.Ctx, r Response) {
				if r.OK() {
					resurrected++
				} else if !r.NetworkError() {
					misses++
				}
			})
		}
		cli.Get(c, reset, func(c *event.Ctx, r Response) {
			freshOK = r.OK() && string(r.Value) == "fresh-after-delete"
		})
	})
	k.RunUntil(k.Now() + 30*sim.Millisecond)
	if resurrected != 0 {
		t.Errorf("%d deleted keys resurrected by the migration stream", resurrected)
	}
	if misses != len(gone) {
		t.Errorf("%d of %d deleted keys read as missing", misses, len(gone))
	}
	if !freshOK {
		t.Error("key re-set after its delete lost the new value")
	}
	// The destination's store must not quietly hold the deleted keys
	// either (a stale copy there would resurface on later ring changes):
	// at most the tombstone of their Delete.
	dest := cl.Backends[len(cl.Backends)-1].Srv.Store
	for key := range gone {
		if e, ok := dest.Get(key); ok && !e.Tombstone() {
			t.Errorf("deleted key %q still present in the destination store", key)
		}
	}
}

// TestStreamRepairsStaleCopy: a migration stream's copy replaces an
// older copy at its destination. At R=1 a join moves a key from its
// owner to the newcomer, and the old owner keeps its copy; a write then
// makes that copy stale. Draining the newcomer moves the key back, and
// the stream's stamped SET must replace the stale copy - an
// add-if-absent stream would leave it, and reads would return it.
func TestStreamRepairsStaleCopy(t *testing.T) {
	cl := NewCluster(3, Options{})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)
	after := cl.Ring.Clone()
	after.Add(3)
	var key []byte
	for i := 0; key == nil; i++ {
		if k := fmt.Appendf(nil, "stale-%d", i); after.Lookup(k) == 3 {
			key = k
		}
	}
	populate(t, cl, cli, [][]byte{key}, func(int) []byte { return []byte("v-old") })
	owner := cl.Ring.Lookup(key)
	m.Join(1)
	if mig := waitMigration(t, cl, m, 300*sim.Millisecond); mig.Aborted {
		t.Fatal("the join aborted")
	}
	var set Response
	front.Spawn(func(c *event.Ctx) {
		cli.Set(c, key, []byte("v-new"), 0, func(c *event.Ctx, r Response) { set = r })
	})
	cl.Sys.K.RunFor(10 * sim.Millisecond)
	if e, ok := cl.Backends[owner].Srv.Store.Get(string(key)); !set.OK() || !ok || string(e.Value) != "v-old" {
		t.Fatalf("Set answered %#x and the old owner holds %+v; want acknowledged and v-old left behind", set.Status, e)
	}
	m.Decommission(3)
	if mig := waitMigration(t, cl, m, 300*sim.Millisecond); mig.Aborted {
		t.Fatal("the drain aborted")
	}
	ok, miss, netErr := readAll(cl, cli, [][]byte{key})
	if e, _ := cl.Backends[owner].Srv.Store.Get(string(key)); ok != 1 || string(e.Value) != "v-new" {
		t.Fatalf("after the drain: %d ok, %d misses, %d net errors; the owner holds %q, want v-new", ok, miss, netErr, e.Value)
	}
}

// TestDecommissionRestoresReplicas is the re-replication regression:
// after a permanent backend loss and DecommissionBackend, every key is
// back to exactly R live replicas and reads succeed with the original
// quorum.
func TestDecommissionRestoresReplicas(t *testing.T) {
	const replicas = 2
	cl := NewCluster(4, Options{Replicas: replicas})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)

	const nKeys = 400
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("decom-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("dv-%d", i)) })

	// Permanent loss: the node dies and is evicted (as the health
	// monitor would); its keys are now at R-1 live replicas.
	cl.Backends[0].Node.Kill()
	cl.EvictBackend(0)
	degraded := 0
	for _, key := range keys {
		if n := cl.LiveHolders(key); n < replicas {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("eviction degraded no key - test vacuous")
	}

	m.Decommission(0)
	mig := waitMigration(t, cl, m, 300*sim.Millisecond)
	if mig.Aborted || mig.Kind != "decommission" {
		t.Fatalf("migration %+v not a completed decommission", mig)
	}
	if mig.Lost != 0 {
		t.Fatalf("%d ranges lost despite surviving replicas", mig.Lost)
	}

	// Every key is back to exactly R live replicas...
	for _, key := range keys {
		if n := cl.LiveHolders(key); n != replicas {
			t.Fatalf("key %q has %d live replicas after re-replication, want %d", key, n, replicas)
		}
	}
	// ...reads succeed...
	ok, miss, netErr := readAll(cl, cli, keys)
	if ok != nKeys || miss != 0 || netErr != 0 {
		t.Fatalf("post-decommission reads: %d ok, %d misses, %d net errors", ok, miss, netErr)
	}
	// ...and writes reach the original quorum (R live replicas ack).
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i := 0; i < 32; i++ {
			cli.Set(c, []byte(fmt.Sprintf("post-decom-%d", i)), []byte("w"), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	cl.Sys.K.RunUntil(cl.Sys.K.Now() + 20*sim.Millisecond)
	if acked != 32 {
		t.Fatalf("only %d of 32 quorum writes acked after decommission", acked)
	}
	if cl.Decommissioned(0) != true || cl.Live(0) {
		t.Fatal("backend 0 not permanently removed")
	}
}

// TestLiveDecommissionDrains: decommissioning a healthy backend streams
// its share away (from the backend itself) before clients drop it; at
// R=1 this is the only way its keys survive at all.
func TestLiveDecommissionDrains(t *testing.T) {
	cl := NewCluster(3, Options{})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)

	const nKeys = 500
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("drain-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("lv-%d", i)) })

	held := cl.Backends[1].Srv.Store.Len()
	if held == 0 {
		t.Fatal("victim holds no keys - test vacuous")
	}
	m.Decommission(1)
	mig := waitMigration(t, cl, m, 300*sim.Millisecond)
	if mig.Aborted || mig.Lost != 0 {
		t.Fatalf("live drain did not complete cleanly: %+v", mig)
	}
	if mig.Moved < held {
		t.Errorf("drain moved %d entries, victim held %d", mig.Moved, held)
	}
	ok, miss, netErr := readAll(cl, cli, keys)
	if ok != nKeys || miss != 0 || netErr != 0 {
		t.Fatalf("post-drain reads: %d ok, %d misses, %d net errors - drained keys lost", ok, miss, netErr)
	}
	for _, key := range keys {
		if n := cl.LiveHolders(key); n != 1 {
			t.Fatalf("key %q has %d live replicas after drain, want 1", key, n)
		}
	}
}

// TestAbortedLiveDrainRestoresBackend: a live decommission whose
// destination leaves the ring mid-stream aborts, and the aborted drain
// hands the victim back: live, on the ring, not decommissioned, not
// draining, and every key still reads.
func TestAbortedLiveDrainRestoresBackend(t *testing.T) {
	cl := NewCluster(4, Options{Replicas: 2})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	// Slow the stream so the eviction lands while it is in flight.
	m := NewMigrator(cl, front)
	m.perEntryCPU, m.jobTimeout = 30*sim.Microsecond, 15*sim.Millisecond
	k := cl.Sys.K

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("abort-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("av-%d", i)) })

	m.Decommission(0)
	k.RunFor(300 * sim.Microsecond)
	if !m.Active() || m.cur.done[0] {
		t.Fatal("the first job finished before the eviction - stream too fast for the test")
	}
	cl.EvictBackend(m.cur.jobs[0].dest)
	if m.Active() {
		t.Fatal("evicting a job's destination left the migration running")
	}
	if mig := m.Last(); !mig.Aborted || mig.Kind != "decommission" {
		t.Fatalf("migration %+v not an aborted decommission", mig)
	}
	if !cl.Live(0) || cl.Decommissioned(0) || cl.draining[0] || !slices.Contains(cl.Ring.Members(), 0) {
		t.Fatalf("aborted drain left backend 0 live=%v decommissioned=%v draining=%v members=%v",
			cl.Live(0), cl.Decommissioned(0), cl.draining[0], cl.Ring.Members())
	}
	ok, miss, netErr := readAll(cl, cli, keys)
	if ok != nKeys || miss != 0 || netErr != 0 {
		t.Fatalf("after the aborted drain: %d ok, %d misses, %d net errors", ok, miss, netErr)
	}
}
