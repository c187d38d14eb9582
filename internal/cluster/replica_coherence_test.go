package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// newReplicatedHotCluster boots an R-replicated cluster with the hot-key
// cache enabled on every client.
func newReplicatedHotCluster(backends, replicas int, hot HotKeyOptions) (*Cluster, *Client) {
	hot.Enable = true
	cl := NewCluster(backends, Options{
		Replicas:      replicas,
		FrontendCores: 4,
		HotKey:        hot,
	})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})
	return cl, cli
}

// TestReplicaStampsUniform: every replica of a written key must hold the
// identical coordinator-assigned version stamp - the invariant that makes
// cross-replica CAS comparisons (cache revalidation, fan-in folds, the
// staleness probe) meaningful at R>1.
func TestReplicaStampsUniform(t *testing.T) {
	cl := NewCluster(5, Options{Replicas: 3, FrontendCores: 2})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})

	const nKeys = 120
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("stamp-key-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("v-%d", i)) })

	for _, key := range keys {
		reps := cl.ReplicaSet(key)
		if len(reps) != 3 {
			t.Fatalf("key %q: replica set %v, want 3 backends", key, reps)
		}
		var stamp uint64
		for j, bi := range reps {
			e, ok := cl.Backends[bi].Srv.Store.Get(string(key))
			if !ok {
				t.Fatalf("key %q missing on replica %d (backend %d)", key, j, bi)
			}
			if e.CAS < stampBase {
				t.Fatalf("key %q on backend %d holds server-minted CAS %d, want a coordinator stamp",
					key, bi, e.CAS)
			}
			if j == 0 {
				stamp = e.CAS
			} else if e.CAS != stamp {
				t.Fatalf("key %q: backend %d holds stamp %d, primary holds %d - replicas diverged",
					key, bi, e.CAS, stamp)
			}
		}
	}
	requireHome(t, cli)
}

// TestReadRepairPreservesStamp: a repaired replica must receive the
// surviving replicas' exact stamp. A repair that re-minted from the
// repaired server's local counter would diverge the replica set and
// silently break every cross-replica CAS comparison afterwards.
func TestReadRepairPreservesStamp(t *testing.T) {
	cl := NewCluster(6, Options{Replicas: 3, FrontendCores: 2})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})
	key := []byte("repair-stamp-key")
	populate(t, cl, cli, [][]byte{key}, func(int) []byte { return []byte("v") })

	primary := cl.Backends[cl.ReplicaSet(key)[0]]
	orig, ok := primary.Srv.Store.Get(string(key))
	if !ok {
		t.Fatal("primary never stored the key")
	}
	primary.Srv.Store.Delete(string(key))

	// The read falls through the primary's miss to a successor, which
	// serves it and triggers the fire-and-forget repair back onto the
	// primary.
	if ok, miss, netErr := readAll(cl, cli, [][]byte{key}); ok != 1 {
		t.Fatalf("read after induced loss: %d ok %d miss %d netErr", ok, miss, netErr)
	}
	cl.Sys.K.RunFor(20 * sim.Millisecond)

	repaired, ok := primary.Srv.Store.Get(string(key))
	if !ok {
		t.Fatal("read repair never restored the primary's copy")
	}
	if repaired.CAS != orig.CAS {
		t.Fatalf("repaired copy holds stamp %d, survivors hold %d - repair re-minted the version",
			repaired.CAS, orig.CAS)
	}
	if string(repaired.Value) != "v" {
		t.Fatalf("repaired value %q", repaired.Value)
	}
	requireHome(t, cli)
}

// TestMigrationStreamPreservesStamp: entries streamed to a joining
// backend must arrive holding their source stamps, not values re-minted
// by the destination's local counter.
func TestMigrationStreamPreservesStamp(t *testing.T) {
	cl := NewCluster(3, Options{FrontendCores: 2})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{})
	m := NewMigrator(cl, front)

	const nKeys = 400
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mig-stamp-%d-%d", i, i*2654435761))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("v-%d", i)) })

	stamps := make(map[string]uint64, nKeys)
	for _, key := range keys {
		e, ok := cl.Route(key).Srv.Store.Get(string(key))
		if !ok {
			t.Fatalf("key %q not on its primary before the join", key)
		}
		stamps[string(key)] = e.CAS
	}

	nb := m.Join(1)
	waitMigration(t, cl, m, 500*sim.Millisecond)

	moved := 0
	for _, key := range keys {
		e, ok := nb.Srv.Store.Get(string(key))
		if !ok {
			continue
		}
		moved++
		if e.CAS != stamps[string(key)] {
			t.Fatalf("migrated key %q holds stamp %d, source held %d - the stream re-minted the version",
				key, e.CAS, stamps[string(key)])
		}
	}
	if moved == 0 {
		t.Fatal("no test key moved to the joined backend")
	}
	t.Logf("%d keys streamed with stamps intact", moved)
	requireHome(t, cli)
}

// TestQuorumFoldShuffledAcks: the quorum verdict's folded stamp must be
// the maximum over the acks that formed it, whatever order the network
// delivered them in - an older ack arriving after a newer one must never
// roll the reported stamp back.
func TestQuorumFoldShuffledAcks(t *testing.T) {
	const stamp = stampBase + 500
	acks := []Response{
		// One replica already held a newer concurrent write and echoed
		// its winning stamp; the others stored ours.
		{Status: memcached.StatusOK, CAS: stamp + 7},
		{Status: memcached.StatusOK, CAS: stamp},
		{Status: memcached.StatusOK, CAS: stamp},
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		order := rng.Perm(len(acks))
		var got *Response
		q := newQuorumFold(len(acks))
		for _, i := range order {
			if r, ok := q.add(acks[i], true); ok {
				if got != nil {
					t.Fatal("quorum reported a second verdict")
				}
				got = &r
			}
		}
		if got == nil {
			t.Fatal("quorum never completed")
		}
		// The verdict fires at the second ack: whichever two arrived
		// first, the fold is their maximum.
		want := max(acks[order[0]].CAS, acks[order[1]].CAS)
		if got.CAS != want {
			t.Fatalf("delivery order %v: reported stamp %d, want %d", order, got.CAS, want)
		}
	}
}

// TestHotWriteSpreadSplitsLoad: once the cluster's write sketch promotes
// a key, its writes round-robin salted shards on distinct owner sets,
// reads fan in to the newest stamp, and a delete establishes absence at
// every shard.
func TestHotWriteSpreadSplitsLoad(t *testing.T) {
	cl := NewCluster(8, Options{
		FrontendCores: 2,
		HotWrite:      HotWriteOptions{Enable: true, salts: 3, PromoteMin: 4},
	})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{})
	key := []byte("write-hot-key")

	const writes = 40
	acked := 0
	var lastVal string
	front.Spawn(func(c *event.Ctx) {
		var round func(c *event.Ctx, n int)
		round = func(c *event.Ctx, n int) {
			if n == writes {
				return
			}
			v := fmt.Sprintf("v-%d", n)
			cli.Set(c, key, []byte(v), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
					lastVal = v
				}
				round(c, n+1)
			})
		}
		round(c, 0)
	})
	cl.Sys.K.RunFor(200 * sim.Millisecond)
	if acked != writes {
		t.Fatalf("%d of %d writes acked", acked, writes)
	}

	st := cl.HotWriteStats()
	if st.Promoted != 1 || st.SaltedWrites == 0 {
		t.Fatalf("write spreading never engaged: %+v", st)
	}

	// Every salted shard must exist, and they must not all share one
	// primary owner - that spread is the point.
	owners := map[int]bool{}
	shards := 0
	for s := 0; s < 3; s++ {
		sk := saltedKey(key, s)
		bi := cl.Ring.Lookup(sk)
		if _, ok := cl.Backends[bi].Srv.Store.Get(string(sk)); ok {
			shards++
			owners[bi] = true
		}
	}
	if shards != 3 {
		t.Fatalf("%d of 3 salted shards stored", shards)
	}
	if len(owners) < 2 {
		t.Fatal("all salted shards landed on one backend - no spread")
	}

	// A fan-in read folds to the newest stamp: the last acked write.
	var got *Response
	front.Spawn(func(c *event.Ctx) {
		cli.Get(c, key, func(c *event.Ctx, r Response) { got = keep(r) })
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	if got == nil || !got.OK() || string(got.Value) != lastVal {
		t.Fatalf("fan-in read got %+v, want %q", got, lastVal)
	}
	if cl.HotWriteStats().SaltedReads == 0 {
		t.Fatal("read did not fan in")
	}

	// With no acked write on record - as after a promotion, before the
	// first salted write acks - a read fans in over every salt and folds
	// to the newest stamp. Each of three more writes makes the next salt
	// the newest; the salts answer in events of their own, so in some of
	// the reads the fold keeps a value past the answer that lent it.
	for n := range 3 {
		v := fmt.Sprintf("fan-in-%d", n)
		var got *Response
		front.Spawn(func(c *event.Ctx) {
			cli.Set(c, key, []byte(v), 0, func(c *event.Ctx, r Response) {
				if !r.OK() {
					t.Errorf("write %q failed: %+v", v, r)
					return
				}
				cl.noteSaltDelete(key) // every salt keeps its copy
				cli.Get(c, key, func(c *event.Ctx, r Response) { got = keep(r) })
			})
		})
		cl.Sys.K.RunFor(50 * sim.Millisecond)
		if got == nil || !got.OK() || string(got.Value) != v {
			t.Fatalf("fan-in read got %+v, want %q", got, v)
		}
	}
	if n := cl.HotWriteStats().SaltedFanIns; n != 3 {
		t.Fatalf("%d reads fanned in, want 3", n)
	}

	// Delete must establish absence at every salt, or a later fan-in
	// folds the surviving shard's copy straight back.
	var del, after *Response
	front.Spawn(func(c *event.Ctx) {
		cli.Delete(c, key, func(c *event.Ctx, r Response) {
			del = keep(r)
			cli.Get(c, key, func(c *event.Ctx, r Response) { after = keep(r) })
		})
	})
	cl.Sys.K.RunFor(50 * sim.Millisecond)
	if del == nil || !del.OK() {
		t.Fatalf("spread delete: %+v", del)
	}
	if after == nil || after.Status != memcached.StatusKeyNotFound {
		t.Fatalf("deleted spread key still reads %+v - a salted shard survived", after)
	}
	requireHome(t, cli)
}

// TestReadYourAckedWriteReplicated: the write-invalidate + re-stamp
// coherence chain at R=3. Before stamps were replica-wide this was the
// R>1 hole: the re-stamp carried whichever replica's local counter
// happened to ack first, incomparable with the fill's stamp from another
// replica, so acked writes could be shadowed by older cached copies
// until the TTL expired.
func TestReadYourAckedWriteReplicated(t *testing.T) {
	cl, cli := newReplicatedHotCluster(5, 3, HotKeyOptions{PromoteMin: 1, ttl: sim.Second})
	front := cl.Sys.Frontend()
	mgrs := front.Runtime.Mgrs()

	const rounds = 25
	type coreResult struct{ reads, stale int }
	results := make([]coreResult, len(mgrs))
	for corei := range mgrs {
		corei := corei
		key := []byte(fmt.Sprintf("r3-core-key-%d", corei))
		var round func(c *event.Ctx, n int)
		round = func(c *event.Ctx, n int) {
			if n >= rounds {
				return
			}
			want := fmt.Sprintf("v-%d-%d", corei, n)
			cli.Set(c, key, []byte(want), 0, func(c *event.Ctx, r Response) {
				if !r.OK() {
					t.Errorf("core %d round %d: set failed %x", corei, n, r.Status)
					return
				}
				cli.Get(c, key, func(c *event.Ctx, r Response) {
					results[corei].reads++
					if !r.OK() || string(r.Value) != want {
						results[corei].stale++
					}
					round(c, n+1)
				})
			})
		}
		mgrs[corei].Spawn(func(c *event.Ctx) { round(c, 0) })
	}
	cl.Sys.K.RunUntil(2 * sim.Second)

	for corei, res := range results {
		if res.reads != rounds {
			t.Fatalf("core %d: %d of %d rounds completed", corei, res.reads, rounds)
		}
		if res.stale != 0 {
			t.Fatalf("core %d: %d reads missed their own acked write at R=3", corei, res.stale)
		}
	}
	st := cli.HotKeyStats()
	if st.Hits == 0 {
		t.Fatalf("cache never served at R=3 - hits collapsed to the network path: %+v", st)
	}
	requireHome(t, cli)
}

// TestReplicaCoherentNoStaleHit: a rogue (uncached) writer hammers the
// hot keys at R=3 while a cached client reads them under the staleness
// probe, which peeks every live owner of every shard. Replica-wide
// stamps make that peek exact, and the TTL stays the hard bound: no hit
// may be served from an entry older than TTL, however hard the rogue
// writes.
func TestReplicaCoherentNoStaleHit(t *testing.T) {
	const ttl = 2 * sim.Millisecond
	cl, cli := newReplicatedHotCluster(6, 3, HotKeyOptions{
		PromoteMin:      1,
		ttl:             ttl,
		revalidateEvery: 8,
		StalenessProbe:  true,
	})
	front := cl.Sys.Frontend()
	rogue := NewClientWithOptions(cl, front, ClientOptions{HotKey: HotKeyOptions{Disable: true}})
	k := cl.Sys.K

	const nHot = 4
	keys := make([][]byte, nHot)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("contested-key-%d", i))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("init-%d", i)) })

	// Rogue writer: one overwrite every 300us, round-robin over the hot
	// keys, invisible to the cached client's invalidation machinery.
	wi := 0
	var writeTick func()
	writeTick = func() {
		key := keys[wi%nHot]
		val := []byte(fmt.Sprintf("rogue-%d", wi))
		wi++
		front.Spawn(func(c *event.Ctx) { rogue.Set(c, key, val, 0, nil) })
		if wi < 600 {
			k.After(300*sim.Microsecond, writeTick)
		}
	}
	k.After(sim.Microsecond, writeTick)

	// Cached reader: one read every 50us across the same keys.
	reads, ri := 0, 0
	var readTick func()
	readTick = func() {
		key := keys[ri%nHot]
		ri++
		front.Spawn(func(c *event.Ctx) {
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				if r.OK() {
					reads++
				}
			})
		})
		if ri < 3000 {
			k.After(50*sim.Microsecond, readTick)
		}
	}
	k.After(sim.Microsecond, readTick)

	k.RunFor(250 * sim.Millisecond)

	if reads < 2900 {
		t.Fatalf("only %d of 3000 contested reads served", reads)
	}
	st := cli.HotKeyStats()
	if st.Hits == 0 {
		t.Fatalf("cache never engaged under contention at R=3: %+v", st)
	}
	if st.MaxStaleAge > ttl {
		t.Fatalf("hit served %v past its fill - beyond the TTL staleness bound %v (%d stale serves)",
			st.MaxStaleAge, ttl, st.StaleServes)
	}
	if st.Revalidations == 0 {
		t.Fatalf("sampled revalidation never ran: %+v", st)
	}

	// The reader's own writes stay read-your-write even mid-contention.
	var final *Response
	want := []byte("own-write")
	front.Spawn(func(c *event.Ctx) {
		cli.Set(c, keys[0], want, 0, func(c *event.Ctx, r Response) {
			if !r.OK() {
				t.Error("own write failed under contention")
				return
			}
			cli.Get(c, keys[0], func(c *event.Ctx, r Response) { final = keep(r) })
		})
	})
	k.RunFor(20 * sim.Millisecond)
	if final == nil || !final.OK() || string(final.Value) != string(want) {
		t.Fatalf("own acked write not read back: %+v", final)
	}
	t.Logf("hits=%d misses=%d staleServes=%d maxStaleAge=%v revalidations=%d refreshes=%d",
		st.Hits, st.Misses, st.StaleServes, st.MaxStaleAge, st.Revalidations, st.Refreshes)
	requireHome(t, cli)
	requireHome(t, rogue)
}
