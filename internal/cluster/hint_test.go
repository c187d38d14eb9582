package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// hintWorld is a frontend of the given cores over four backends at R=3
// with a 2 ms request timeout, key and seven others populated from core
// 0 - so core 0, and only core 0, has both its connections to every
// backend up - and key's primary.
func hintWorld(t *testing.T, key []byte, cores int) (*Cluster, *Client, int) {
	t.Helper()
	cl := NewCluster(4, Options{FrontendCores: cores, Replicas: 3})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{RequestTimeout: 2 * sim.Millisecond})
	keys := [][]byte{key}
	for i := range 7 {
		keys = append(keys, fmt.Appendf(nil, "other-%d", i))
	}
	populate(t, cl, cli, keys, func(int) []byte { return []byte("v-init") })
	return cl, cli, cl.ReplicaSet(key)[0]
}

// readBack reads key from core 0 - the primary first - and returns the
// answer.
func readBack(t *testing.T, cl *Cluster, cli *Client, key []byte) *Response {
	t.Helper()
	var got *Response
	cli.mgrs[0].Spawn(func(c *event.Ctx) {
		cli.Get(c, key, func(c *event.Ctx, r Response) { got = keep(r) })
	})
	cl.Sys.K.RunFor(20 * sim.Millisecond)
	if got == nil {
		t.Fatal("the read-back never answered")
	}
	return got
}

// The stale primary FuzzWriteLifecycle found, pinned: a key's primary is
// silent for 3 ms, longer than the request timeout. Core 1 deletes the
// key and writes it six times meanwhile, over its first connections to
// the primary, whose SYNs are lost. Then core 0 writes the key once more,
// over a connection that is up. Every write acks on the other two
// replicas. Core 0's copy reaches the primary soon after it is back;
// core 1's arrive some 200 ms later, with the SYN's retransmission. An
// unstamped Delete would erase the newer value there and the older Sets
// behind it fill the key in again: the primary would keep the sixth
// write for good, and a read, which asks the primary first, return it.
// The Delete's stamp is older than the last write's, so it leaves that
// in place, and the older Sets are no-ops. Core 0's hint for its
// timed-out copy replays harmlessly.
func TestTimeoutStalePrimary(t *testing.T) {
	key := []byte("hint-key")
	cl, cli, primary := hintWorld(t, key, 2)
	k := cl.Sys.K
	var acks []Response
	done := func(c *event.Ctx, r Response) { acks = append(acks, r) }
	start := k.Now()
	node := cl.Backends[primary].Node
	node.Kill()
	k.After(3*sim.Millisecond, node.Revive)
	k.At(start, func() {
		cli.mgrs[1].Spawn(func(c *event.Ctx) { cli.Delete(c, key, done) })
	})
	for i := 1; i <= 6; i++ {
		k.At(start+sim.Time(i)*30*sim.Microsecond, func() {
			cli.mgrs[1].Spawn(func(c *event.Ctx) { cli.Set(c, key, []byte(fmt.Sprintf("v-%d", i)), 0, done) })
		})
	}
	var last Response
	k.At(start+1860*sim.Microsecond, func() {
		cli.mgrs[0].Spawn(func(c *event.Ctx) {
			cli.Set(c, key, []byte("v-last"), 0, func(c *event.Ctx, r Response) { last = r })
		})
	})
	k.RunFor(300 * sim.Millisecond)
	if len(acks) != 7 || !last.OK() {
		t.Fatalf("the writes did not all ack: %d of 7 answered, last %#x", len(acks), last.Status)
	}
	for i, r := range acks {
		if !r.OK() {
			t.Fatalf("write %d answered %#x", i, r.Status)
		}
	}
	if got := readBack(t, cl, cli, key); !got.OK() || string(got.Value) != "v-last" || got.CAS != last.CAS {
		t.Fatalf("read back %#x %q at stamp %d, want the acknowledged %q at %d", got.Status, got.Value, got.CAS, "v-last", last.CAS)
	}
	e, ok := cl.Backends[primary].Srv.Store.Get(string(key))
	if !ok || !bytes.Equal(e.Value, []byte("v-last")) {
		t.Fatalf("the primary holds %v, want v-last", e)
	}
	requireHome(t, cli)
	requireNoHints(t, cli)
}

// requireNoHints fails t unless every frontend core of cli has replayed
// and let go of every hint it kept.
func requireNoHints(t *testing.T, cli *Client) {
	t.Helper()
	for corei := range cli.mgrs {
		if rep, ok := cli.ref.GetIfPresent(corei); ok && (rep.hints.Outstanding() != 0 || len(rep.kept) != 0) {
			t.Fatalf("core %d: %d hints out, %d kept", corei, rep.hints.Outstanding(), len(rep.kept))
		}
	}
}

// A fault-free write keeps no hint, and a Set that fails at its quorum
// keeps none either: only a failed copy of an acknowledged Set is one.
func TestHintsOnlyForAcknowledgedSets(t *testing.T) {
	key := []byte("hint-key")
	cl, cli, primary := hintWorld(t, key, 2)
	k := cl.Sys.K
	var r Response
	set := func(v string) {
		cli.mgrs[0].Spawn(func(c *event.Ctx) {
			cli.Set(c, key, []byte(v), 0, func(c *event.Ctx, resp Response) { r = resp })
		})
		k.RunFor(10 * sim.Millisecond)
	}
	set("v-1")
	if !r.OK() {
		t.Fatalf("fault-free Set answered %#x", r.Status)
	}
	requireNoHints(t, cli)

	// Two of three replicas silent: the Set fails and leaves nothing.
	set2 := cl.ReplicaSet(key)
	for _, b := range set2[:2] {
		cl.Backends[b].Node.Kill()
	}
	set("v-2")
	if !r.NetworkError() {
		t.Fatalf("a Set reaching one of three replicas answered %#x", r.Status)
	}
	if rep, _ := cli.ref.GetIfPresent(0); rep.hints.Outstanding() != 0 {
		t.Fatalf("a failed Set kept %d hints", rep.hints.Outstanding())
	}

	// The primary alone silent: the Set acks and keeps one hint, which
	// the core replays and lets go of once the primary answers again.
	cl.Backends[set2[1]].Node.Revive()
	k.RunFor(400 * sim.Millisecond) // the stragglers land
	set("v-3")
	if !r.OK() {
		t.Fatalf("a Set reaching two of three replicas answered %#x", r.Status)
	}
	if rep, _ := cli.ref.GetIfPresent(0); len(rep.kept) != 1 || rep.kept[0].backend != primary {
		t.Fatalf("kept %d hints, want one for the primary", len(rep.kept))
	}
	cl.Backends[primary].Node.Revive()
	k.RunFor(400 * sim.Millisecond)
	if got := readBack(t, cl, cli, key); string(got.Value) != "v-3" {
		t.Fatalf("read back %q, want v-3", got.Value)
	}
	if e, ok := cl.Backends[primary].Srv.Store.Get(string(key)); !ok || string(e.Value) != "v-3" {
		t.Fatal("the primary never got the hinted write")
	}
	requireHome(t, cli)
	requireNoHints(t, cli)
}

// A core keeps at most maxHints hints; the failure that would pass the
// bound is dropped with an audit event, and reads keep their ring order.
func TestHintOverflowDrops(t *testing.T) {
	key := []byte("hint-key")
	cl, cli, primary := hintWorld(t, key, 2)
	tape := new(audit.Tape)
	cl.Audit = audit.NewLog(tape)
	order := cl.ReadSet(key)
	rep := cli.ref.Get(0)
	rec := &writeRecord{}
	keep := func(from, to int, stamp func(int) uint64) {
		cli.mgrs[0].Spawn(func(c *event.Ctx) {
			for i := from; i < to; i++ {
				rec.key, rec.stamp = fmt.Appendf(rec.key[:0], "k-%d", i), stamp(i)
				rep.keepHint(c, primary, rec)
			}
		})
		cl.Sys.K.RunFor(sim.Millisecond)
	}
	keep(0, maxHints+1, func(i int) uint64 { return uint64(i + 1) })
	if rep.hints.Outstanding() != maxHints {
		t.Fatalf("%d hints kept, want %d", rep.hints.Outstanding(), maxHints)
	}
	evs := *tape
	if len(evs) != 1 || evs[0].Kind != audit.HintDropped || evs[0].Fields["key"] != fmt.Sprintf("k-%d", maxHints) {
		t.Fatalf("audit events %v, want one %s for k-%d", evs, audit.HintDropped, maxHints)
	}
	if got := cl.ReadSet(key); !slices.Equal(got, order) {
		t.Fatalf("read set %v after the overflow, want the ring's %v", got, order)
	}
	// A newer failure of a kept key updates its hint instead.
	keep(0, 1, func(int) uint64 { return 1 << 20 })
	if rep.hints.Outstanding() != maxHints || rep.kept[0].stamp != 1<<20 {
		t.Fatalf("a newer failure of a kept key added a hint or missed the kept one")
	}
}

// A Delete retires the hints of the Sets of its key issued before it,
// and only those. Core 2's copy of a Set to the silent primary is lost
// with its handshaking connection, which core 2 tears down, so core 2
// keeps a hint. The primary comes back, and core 0 deletes the key, or
// another key; then, past the Delete's tombstone horizon (a second),
// core 2 reads from the primary and its answer replays the hint. Where
// the Delete was of the Set's key, a replay would store the deleted value
// again, for good: the tombstone that ordered it is gone, and reads,
// which ask the primary first, would return it and repair it onto the
// other replicas. A Delete of another key leaves the hint to replay.
func TestDeleteRetiresOlderHints(t *testing.T) {
	for _, tc := range []struct{ name, del, want string }{
		{"same key", "hint-key", ""},
		{"other key", "other-0", "v-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := []byte("hint-key")
			cl, cli, primary := hintWorld(t, key, 3)
			k := cl.Sys.K
			node := cl.Backends[primary].Node
			node.Kill()
			var set, del Response
			cli.mgrs[2].Spawn(func(c *event.Ctx) {
				cli.Set(c, key, []byte("v-1"), 0, func(c *event.Ctx, r Response) { set = r })
			})
			k.RunFor(sim.Millisecond)
			cli.mgrs[2].Spawn(func(c *event.Ctx) { cli.rep(c).dropBackend(c, primary) })
			k.RunFor(sim.Millisecond)
			node.Revive()
			cli.mgrs[0].Spawn(func(c *event.Ctx) {
				cli.Delete(c, []byte(tc.del), func(c *event.Ctx, r Response) { del = r })
			})
			k.RunFor(2 * sim.Second)
			cli.mgrs[2].Spawn(func(c *event.Ctx) { cli.Get(c, key, func(*event.Ctx, Response) {}) })
			k.RunFor(20 * sim.Millisecond)
			if !set.OK() || !del.OK() {
				t.Fatalf("Set answered %#x and Delete %#x, want both acknowledged", set.Status, del.Status)
			}
			got := readBack(t, cl, cli, key)
			e, ok := cl.Backends[primary].Srv.Store.Get(string(key))
			switch {
			case tc.want == "" && got.Status != memcached.StatusKeyNotFound:
				t.Fatalf("read back %#x %q after an acknowledged Delete, want not found", got.Status, got.Value)
			case tc.want == "" && ok && !e.Tombstone():
				t.Fatal("the primary holds the deleted key")
			case tc.want != "" && (!ok || string(e.Value) != tc.want || string(got.Value) != tc.want):
				t.Fatalf("read back %q, want the hinted %q on the primary", got.Value, tc.want)
			}
			requireHome(t, cli)
			requireNoHints(t, cli)
		})
	}
}

// A hint brings a write its primary never got back to it after an
// eviction. While the primary is silent, core 1 deletes the key and
// writes it six times over its two connections to the primary, which
// are up; then core 2, whose first connection to the primary is still in
// its handshake, writes it once more. Every write acks on the other two
// replicas, and core 2 keeps a hint for the last. The primary is evicted
// - core 2's handshaking connection drops what it queued, and core 1's
// close but keep retransmitting - then revived and restored. It answers
// core 2 over a new connection, which replays the hint, before core 1's
// stragglers land; the stamped Delete among them leaves the newer value
// in place, and the older Sets are no-ops.
func TestHintReplaysAfterEviction(t *testing.T) {
	key := []byte("hint-key")
	cl, cli, primary := hintWorld(t, key, 3)
	k := cl.Sys.K
	cli.mgrs[1].Spawn(func(c *event.Ctx) {
		for range 2 {
			cli.Get(c, key, func(*event.Ctx, Response) {})
		}
	})
	k.RunFor(sim.Millisecond)
	node := cl.Backends[primary].Node
	node.Kill()
	var acks []Response
	done := func(c *event.Ctx, r Response) { acks = append(acks, r) }
	cli.mgrs[1].Spawn(func(c *event.Ctx) { cli.Delete(c, key, done) })
	for i := 1; i <= 6; i++ {
		k.RunFor(30 * sim.Microsecond)
		cli.mgrs[1].Spawn(func(c *event.Ctx) { cli.Set(c, key, fmt.Appendf(nil, "v-%d", i), 0, done) })
	}
	k.RunFor(1700 * sim.Microsecond)
	cli.mgrs[2].Spawn(func(c *event.Ctx) { cli.Set(c, key, []byte("v-7"), 0, done) })
	k.RunFor(2500 * sim.Microsecond)
	cl.EvictBackend(primary)
	k.RunFor(sim.Millisecond)
	node.Revive()
	cl.RestoreBackend(primary)
	// A read whose first replica is the primary opens core 2's new
	// connection to it.
	var probe []byte
	for i := 0; probe == nil; i++ {
		if p := fmt.Appendf(nil, "probe-%d", i); cl.ReadSet(p)[0] == primary {
			probe = p
		}
	}
	cli.mgrs[2].Spawn(func(c *event.Ctx) { cli.Get(c, probe, func(*event.Ctx, Response) {}) })
	k.RunFor(400 * sim.Millisecond)
	if len(acks) != 8 {
		t.Fatalf("%d of 8 writes answered", len(acks))
	}
	for i, r := range acks {
		if !r.OK() {
			t.Fatalf("write %d answered %#x", i, r.Status)
		}
	}
	if got := readBack(t, cl, cli, key); !got.OK() || string(got.Value) != "v-7" {
		t.Fatalf("read back %#x %q, want the acknowledged v-7", got.Status, got.Value)
	}
	requireHome(t, cli)
	requireNoHints(t, cli)
}

// A hint kept for a key in a moved range goes to the range's new owner as
// the handoff opens, since the stream may copy the key from the very
// backend that missed the Set. Core 1 Sets a key the join will move,
// its first connections still handshaking, and tears down the one to the
// key's primary before the Set leaves: the primary never gets it, core 1
// keeps a hint, and no answer from the primary replays it. Then a backend
// joins; the stream copies the key from the primary, the old value, and
// only the forwarded hint brings the new owner the acknowledged one.
func TestHintForwardedAtHandoff(t *testing.T) {
	before := NewRing(DefaultVNodes)
	for b := range 4 {
		before.Add(b)
	}
	after := before.Clone()
	after.Add(4)
	var key []byte
	for i := 0; key == nil; i++ {
		if k := fmt.Appendf(nil, "moved-%d", i); slices.Contains(after.LookupN(k, 3), 4) {
			key = k
		}
	}
	cl, cli, primary := hintWorld(t, key, 2)
	k := cl.Sys.K
	var set Response
	cli.mgrs[1].Spawn(func(c *event.Ctx) {
		cli.Set(c, key, []byte("v-new"), 0, func(c *event.Ctx, r Response) { set = r })
		cli.rep(c).dropBackend(c, primary)
	})
	k.RunFor(10 * sim.Millisecond)
	if rep, _ := cli.ref.GetIfPresent(1); !set.OK() || len(rep.kept) != 1 {
		t.Fatalf("Set answered %#x with %d hints kept, want acknowledged with one", set.Status, len(rep.kept))
	}
	m := NewMigrator(cl, cl.Sys.Frontend())
	m.Join(1)
	if mig := waitMigration(t, cl, m, 300*sim.Millisecond); mig.Aborted {
		t.Fatal("the join aborted")
	}
	if e, ok := cl.Backends[4].Srv.Store.Get(string(key)); !ok || string(e.Value) != "v-new" || e.CAS != set.CAS {
		t.Fatalf("the new owner holds %+v, want v-new at the Set's stamp %d", e, set.CAS)
	}
}
