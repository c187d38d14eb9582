package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// chaosStep is one scheduled fault.
type chaosStep struct {
	at      sim.Time
	backend int
	revive  bool // false = kill, true = revive
}

// TestChaosSchedules drives client load while killing and reviving
// backends on a deterministic schedule, asserting the three fault-
// tolerance invariants: no false misses (a get for a durably written
// key never reports KeyNotFound), quorum-write durability (every set
// acked OK during the chaos is readable afterwards), and ring
// convergence (the ring's membership matches the surviving backends
// once the health monitor has caught up).
func TestChaosSchedules(t *testing.T) {
	cases := []struct {
		name     string
		backends int
		replicas int
		steps    []chaosStep
		// wantZeroSetFails asserts no write ever failed quorum - holds
		// when a majority of every replica set stays alive throughout.
		wantZeroSetFails bool
	}{
		{
			name:     "kill-one-R2",
			backends: 4,
			replicas: 2,
			steps:    []chaosStep{{at: 40 * sim.Millisecond, backend: 1}},
		},
		{
			name:     "kill-revive-R2",
			backends: 4,
			replicas: 2,
			steps: []chaosStep{
				{at: 40 * sim.Millisecond, backend: 2},
				{at: 110 * sim.Millisecond, backend: 2, revive: true},
			},
		},
		{
			name:     "kill-one-R3-writes-never-fail",
			backends: 5,
			replicas: 3,
			steps:    []chaosStep{{at: 40 * sim.Millisecond, backend: 0}},
			// R=3 quorum is 2: one dead replica never blocks a write.
			wantZeroSetFails: true,
		},
		{
			name:     "sequential-kills-R3",
			backends: 5,
			replicas: 3,
			steps: []chaosStep{
				{at: 40 * sim.Millisecond, backend: 1},
				{at: 100 * sim.Millisecond, backend: 4},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runChaos(t, tc.backends, tc.replicas, tc.steps, tc.wantZeroSetFails) })
	}
}

// TestMigrationChaosSourceKill kills a backend that is actively
// sourcing a migration stream. The migrator must restart the affected
// transfers from a surviving replica and complete; throughout, no get
// of a durably written key may report a miss and no acked write may be
// lost. Completion is awaited on the migration.done event and the
// whole fault timeline is asserted as a sequence.
func TestMigrationChaosSourceKill(t *testing.T) {
	tape := new(audit.Tape)
	cl := NewCluster(4, Options{Replicas: 2, Audit: audit.NewLog(tape)})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	// Slow the stream down (per-entry CPU) so the kill lands mid-transfer.
	m := NewMigrator(cl, front)
	m.perEntryCPU, m.jobTimeout = 30*sim.Microsecond, 15*sim.Millisecond
	k := cl.Sys.K

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mig-src-%d-%d", i, i*2654435761))
	}
	populateChaos(t, cl, cli, keys)

	mark := len(*tape)
	joinAt := k.Now() + 2*sim.Millisecond
	victim := -1
	k.At(joinAt, func() { m.Join(1) })
	k.At(joinAt+1*sim.Millisecond, func() {
		if m.cur == nil {
			t.Fatal("migration already finished before the kill - stream too fast for the test")
		}
		// Kill a source of a still-unfinished transfer.
		for j, job := range m.cur.jobs {
			if !m.cur.done[j] {
				victim = job.sources[0]
				break
			}
		}
		if victim < 0 {
			t.Fatal("no unfinished job to sabotage")
		}
		cl.Audit.Emit(k.Now(), int(cl.Backends[victim].Node.Id), audit.NodeKilled, audit.Fields{"backend": victim})
		cl.Backends[victim].Node.Kill()
	})
	// The health monitor would evict the dead source ~15ms later.
	k.At(joinAt+8*sim.Millisecond, func() {
		if victim >= 0 {
			cl.EvictBackend(victim)
		}
	})

	falseMisses, durable := pumpChaosLoad(t, cl, cli, keys, joinAt, joinAt+120*sim.Millisecond)
	if _, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.MigrationDone), mark, k.Now()+300*sim.Millisecond); !ok {
		t.Fatal("migration never completed after the source kill")
	}
	if err := audit.ExpectEvents((*tape)[mark:]).Seq(
		audit.On(audit.MigrationStart),
		audit.On(audit.NodeKilled),
		audit.On(audit.HealthEvicted),
		audit.On(audit.MigrationDone),
	); err != nil {
		t.Fatalf("source-kill sequence: %v", err)
	}
	if n := audit.ExpectEvents(*tape).Count(audit.On(audit.MigrationAbort)); n != 0 {
		t.Fatalf("migration aborted instead of restarting from a surviving replica (%d abort events)", n)
	}
	mig := m.Last()
	if mig == nil || mig.Aborted {
		t.Fatal("migrator state disagrees with the event log")
	}
	if mig.Lost != 0 {
		t.Fatalf("%d ranges lost despite surviving replicas", mig.Lost)
	}
	if *falseMisses != 0 {
		t.Errorf("%d false misses during source-kill migration", *falseMisses)
	}
	verifyDurable(t, cl, cli, keys, durable)
	requireHome(t, cli)
}

// TestMigrationChaosDestKill kills the joining backend mid-stream. The
// migrator must abort once the destination is evicted, the handoff
// window must close, and - as ever - no durable key may read as a miss
// and no acked write may be lost.
func TestMigrationChaosDestKill(t *testing.T) {
	tape := new(audit.Tape)
	cl := NewCluster(4, Options{Replicas: 2, Audit: audit.NewLog(tape)})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	m := NewMigrator(cl, front)
	m.perEntryCPU, m.jobTimeout = 30*sim.Microsecond, 15*sim.Millisecond
	k := cl.Sys.K

	const nKeys = 600
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mig-dst-%d-%d", i, i*2654435761))
	}
	populateChaos(t, cl, cli, keys)

	mark := len(*tape)
	joinAt := k.Now() + 2*sim.Millisecond
	k.At(joinAt, func() { m.Join(1) })
	dest := -1
	k.At(joinAt+1*sim.Millisecond, func() {
		if m.cur == nil {
			t.Fatal("migration already finished before the kill - stream too fast for the test")
		}
		dest = len(cl.Backends) - 1
		cl.Audit.Emit(k.Now(), int(cl.Backends[dest].Node.Id), audit.NodeKilled, audit.Fields{"backend": dest})
		cl.Backends[dest].Node.Kill()
	})
	// Eviction of the dead newcomer (the monitor's job) aborts the
	// migration and restores write availability for its ranges.
	k.At(joinAt+8*sim.Millisecond, func() {
		if dest >= 0 {
			cl.EvictBackend(dest)
		}
	})

	falseMisses, durable := pumpChaosLoad(t, cl, cli, keys, joinAt, joinAt+120*sim.Millisecond)
	abort, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.MigrationAbort), mark, k.Now()+300*sim.Millisecond)
	if !ok {
		t.Fatal("migration to a dead destination never emitted migration.abort")
	}
	// The abort event fires at the teardown itself: the handoff window
	// is already closed when it is observed.
	if cl.Migrating() {
		t.Fatal("handoff window still open after the abort event")
	}
	if err := audit.ExpectEvents((*tape)[mark:]).Seq(
		audit.On(audit.MigrationStart),
		audit.On(audit.NodeKilled),
		audit.On(audit.HealthEvicted),
		audit.On(audit.MigrationAbort),
	); err != nil {
		t.Fatalf("dest-kill sequence: %v", err)
	}
	// An aborted run must not also claim completion, and no cutover may
	// land after the abort.
	x := audit.ExpectEvents((*tape)[mark:])
	if n := x.Count(audit.On(audit.MigrationDone)); n != 0 {
		t.Fatalf("aborted migration emitted %d migration.done events", n)
	}
	if last, ok := x.Last(audit.On(audit.MigrationCutover)); ok && last.Time > abort.Time {
		t.Fatalf("cutover at %d after the abort at %d", last.Time, abort.Time)
	}
	if mig := m.Last(); mig == nil || !mig.Aborted {
		t.Fatal("migrator state disagrees with the event log")
	}
	if *falseMisses != 0 {
		t.Errorf("%d false misses during dest-kill migration", *falseMisses)
	}
	verifyDurable(t, cl, cli, keys, durable)

	// The cluster is whole again: writes reach quorum on the old ring.
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i := 0; i < 32; i++ {
			cli.Set(c, []byte(fmt.Sprintf("post-abort-%d", i)), []byte("w"), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	deadline := k.Now() + 20*sim.Millisecond
	for acked < 32 && k.Now() < deadline {
		k.RunFor(250 * sim.Microsecond)
	}
	if acked != 32 {
		t.Fatalf("only %d of 32 writes acked after the aborted join", acked)
	}
	requireHome(t, cli)
}

// populateChaos quorum-writes the key population, failing on any nack.
func populateChaos(t *testing.T, cl *Cluster, cli *Client, keys [][]byte) {
	t.Helper()
	acked := 0
	cl.Sys.Frontend().Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			cli.Set(c, key, []byte(fmt.Sprintf("v0-%d", i)), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	k := cl.Sys.K
	deadline := k.Now() + 30*sim.Millisecond
	for acked < len(keys) && k.Now() < deadline {
		k.RunFor(250 * sim.Microsecond)
	}
	if acked != len(keys) {
		t.Fatalf("populate: %d of %d quorum writes acked", acked, len(keys))
	}
}

// pumpChaosLoad drives mixed load from `from` to `to` and runs the
// kernel through it: gets of the durable population (counting false
// misses) plus fresh writes whose acks are recorded in the returned
// durable map.
func pumpChaosLoad(t *testing.T, cl *Cluster, cli *Client, keys [][]byte, from, to sim.Time) (*int, map[string][]byte) {
	t.Helper()
	falseMisses := new(int)
	durable := map[string][]byte{}
	mgr := cl.Sys.Frontend().Runtime.Mgrs()[0]
	seq := 0
	var pump func(c *event.Ctx)
	pump = func(c *event.Ctx) {
		if c.Now() >= to {
			return
		}
		seq++
		cli.Get(c, keys[seq%len(keys)], func(c *event.Ctx, r Response) {
			if !r.OK() && !r.NetworkError() {
				*falseMisses++
			}
		})
		if seq%10 == 0 {
			wkey := []byte(fmt.Sprintf("mig-new-%d", seq))
			wval := []byte(fmt.Sprintf("nv-%d", seq))
			cli.Set(c, wkey, wval, 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					durable[string(wkey)] = wval
				}
			})
		}
		mgr.After(200*sim.Microsecond, pump)
	}
	cl.Sys.K.At(from, func() { mgr.Spawn(pump) })
	// Run only to the end of the load window; callers wait on the audit
	// events for whatever the chaos was supposed to trigger, instead of
	// a fixed slack window.
	cl.Sys.K.RunUntil(to)
	return falseMisses, durable
}

// verifyDurable reads the population plus every mid-chaos acked write
// and requires all of them served.
func verifyDurable(t *testing.T, cl *Cluster, cli *Client, keys [][]byte, durable map[string][]byte) {
	t.Helper()
	all := append([][]byte(nil), keys...)
	for key := range durable {
		all = append(all, []byte(key))
	}
	ok, miss, netErr := readAll(cl, cli, all)
	if ok != len(all) || miss != 0 || netErr != 0 {
		t.Errorf("durability: %d/%d keys verified, %d misses, %d network errors", ok, len(all), miss, netErr)
	}
	if len(durable) == 0 {
		t.Error("no writes acked during the chaos window - durability check vacuous")
	}
}

func runChaos(t *testing.T, backends, replicas int, steps []chaosStep, wantZeroSetFails bool) {
	cl := NewCluster(backends, Options{Replicas: replicas})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	mon := NewHealthMonitor(cl, front)
	mon.Start()
	k := cl.Sys.K
	mgr := front.Runtime.Mgrs()[0]

	// Phase 1: populate a durable key set through quorum writes.
	const nKeys = 150
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chaos-key-%d", i))
	}
	acked := 0
	front.Spawn(func(c *event.Ctx) {
		for i, key := range keys {
			cli.Set(c, key, []byte(fmt.Sprintf("v0-%d", i)), 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					acked++
				}
			})
		}
	})
	k.RunUntil(20 * sim.Millisecond)
	if acked != nKeys {
		t.Fatalf("populate: %d of %d quorum writes acked", acked, nKeys)
	}

	// Phase 2: continuous mixed load across the fault schedule. Gets hit
	// the durable population (any miss is a false miss); sets write
	// fresh keys whose acks feed the durability check.
	endLoad := 160 * sim.Millisecond
	var falseMisses, getNetErrs, setFails int
	durable := map[string][]byte{}
	seq := 0
	var pump func(c *event.Ctx)
	pump = func(c *event.Ctx) {
		if c.Now() >= endLoad {
			return
		}
		seq++
		key := keys[seq%nKeys]
		cli.Get(c, key, func(c *event.Ctx, r Response) {
			switch {
			case r.OK():
			case r.NetworkError():
				getNetErrs++
			default:
				falseMisses++
			}
		})
		if seq%10 == 0 {
			wkey := []byte(fmt.Sprintf("chaos-new-%d", seq))
			wval := []byte(fmt.Sprintf("nv-%d", seq))
			cli.Set(c, wkey, wval, 0, func(c *event.Ctx, r Response) {
				if r.OK() {
					durable[string(wkey)] = wval
				} else {
					setFails++
				}
			})
		}
		mgr.After(200*sim.Microsecond, pump)
	}
	mgr.Spawn(pump)

	// Schedule the faults.
	for _, s := range steps {
		s := s
		k.At(s.at, func() {
			if s.revive {
				cl.Backends[s.backend].Node.Revive()
			} else {
				cl.Backends[s.backend].Node.Kill()
			}
		})
	}

	// Run through the load window plus settle time for the monitor to
	// converge (detection ~15ms: three missed 5ms beats; restoration
	// ~10-15ms: fresh-connection probes answered for two beats).
	k.RunUntil(endLoad + 60*sim.Millisecond)

	if falseMisses != 0 {
		t.Errorf("%d false misses during chaos (gets of durable keys reported KeyNotFound)", falseMisses)
	}
	if wantZeroSetFails && setFails != 0 {
		t.Errorf("%d quorum writes failed despite a live majority in every replica set", setFails)
	}

	// Ring convergence: membership must match the backends that are
	// alive now (killed-and-revived backends restored, dead ones out).
	alive := map[int]bool{}
	for i, b := range cl.Backends {
		alive[i] = b.Node.Alive()
	}
	members := map[int]bool{}
	for _, m := range cl.Ring.Members() {
		members[m] = true
	}
	for i := range cl.Backends {
		if alive[i] != members[i] {
			t.Errorf("ring did not converge: backend %d alive=%v on-ring=%v", i, alive[i], members[i])
		}
		if alive[i] != cl.Live(i) {
			t.Errorf("Live(%d)=%v disagrees with node state %v", i, cl.Live(i), alive[i])
		}
	}

	// Phase 3: durability. Every key acked at quorum - the original
	// population and everything acked mid-chaos - must still be served.
	verified, misses, netErrs := 0, 0, 0
	front.Spawn(func(c *event.Ctx) {
		check := func(key []byte) {
			cli.Get(c, key, func(c *event.Ctx, r Response) {
				switch {
				case r.OK():
					verified++
				case r.NetworkError():
					netErrs++
				default:
					misses++
				}
			})
		}
		for _, key := range keys {
			check(key)
		}
		for key := range durable {
			check([]byte(key))
		}
	})
	k.RunUntil(k.Now() + 40*sim.Millisecond)
	want := nKeys + len(durable)
	if verified != want || misses != 0 || netErrs != 0 {
		t.Errorf("durability: %d/%d keys verified, %d misses, %d network errors",
			verified, want, misses, netErrs)
	}
	if len(durable) == 0 {
		t.Error("no writes acked during chaos - durability check vacuous")
	}
	requireHome(t, cli)
}
