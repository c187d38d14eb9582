package cluster

import (
	"fmt"
	"testing"

	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// The event-driven chaos tests: instead of running the kernel a fixed
// slack window past each fault and probing state, they wait on the
// audit tape for the exact transition events and assert the full
// sequence (kill -> missed beats -> eviction -> failover reads, revive
// -> restore). A suppressed event fails the test at the deadline
// rather than passing silently; TestChaosSchedules stays timing-based
// as the regression control for the old style.

// auditedCluster builds a cluster whose state machines report onto a
// tape, with a running health monitor.
func auditedCluster(backends, replicas int) (*Cluster, *Client, *audit.Tape) {
	tape := new(audit.Tape)
	cl := NewCluster(backends, Options{Replicas: replicas, Audit: audit.NewLog(tape)})
	front := cl.Sys.Frontend()
	cli := NewClientWithOptions(cl, front, ClientOptions{RequestTimeout: 8 * sim.Millisecond})
	NewHealthMonitor(cl, front).Start()
	return cl, cli, tape
}

// killMarked / reviveMarked emit the chaos marker the fault injector
// owes the log, then apply the fault. The marker is what lets tests
// (and the availability experiment's gate) anchor detection-latency
// measurements.
func killMarked(cl *Cluster, i int) {
	cl.Audit.Emit(cl.Sys.K.Now(), int(cl.Backends[i].Node.Id), audit.NodeKilled, audit.Fields{"backend": i})
	cl.Backends[i].Node.Kill()
}

func reviveMarked(cl *Cluster, i int) {
	cl.Audit.Emit(cl.Sys.K.Now(), int(cl.Backends[i].Node.Id), audit.NodeRevived, audit.Fields{"backend": i})
	cl.Backends[i].Node.Revive()
}

// startChaosPump issues a get of the durable population every 200us
// until the cutoff, counting false misses.
func startChaosPump(cl *Cluster, cli *Client, keys [][]byte, until sim.Time) *int {
	falseMisses := new(int)
	mgr := cl.Sys.Frontend().Runtime.Mgrs()[0]
	seq := 0
	var pump func(c *event.Ctx)
	pump = func(c *event.Ctx) {
		if c.Now() >= until {
			return
		}
		seq++
		cli.Get(c, keys[seq%len(keys)], func(c *event.Ctx, r Response) {
			if !r.OK() && !r.NetworkError() {
				*falseMisses++
			}
		})
		mgr.After(200*sim.Microsecond, pump)
	}
	mgr.Spawn(pump)
	return falseMisses
}

func chaosKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chaos-key-%d", i))
	}
	return keys
}

// monotonicPerNode asserts the recorded trace never goes backwards in
// sim time for any node: emission happens at the instant of the
// transition, so a reordering would mean a sink-level bug.
func monotonicPerNode(t *testing.T, events []audit.Event) {
	t.Helper()
	last := map[int]sim.Time{}
	for i, e := range events {
		if prev, ok := last[e.Node]; ok && e.Time < prev {
			t.Fatalf("event %d (%s@node%d t=%d) precedes an earlier event at t=%d", i, e.Kind, e.Node, e.Time, prev)
		}
		last[e.Node] = e.Time
	}
}

// TestChaosEvictionEventSequence kills a backend under live load and
// waits on the events themselves: the kill marker, three missed beats,
// the eviction, and a failover read served from a surviving replica.
func TestChaosEvictionEventSequence(t *testing.T) {
	cl, cli, tape := auditedCluster(4, 2)
	k := cl.Sys.K
	keys := chaosKeys(150)
	populateChaos(t, cl, cli, keys)

	const victim = 1
	victimNode := int(cl.Backends[victim].Node.Id)
	mark := len(*tape)
	killedAt := k.Now()
	killMarked(cl, victim)
	falseMisses := startChaosPump(cl, cli, keys, killedAt+80*sim.Millisecond)

	evicted, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.HealthEvicted).OnNode(victimNode), mark, killedAt+80*sim.Millisecond)
	if !ok {
		t.Fatalf("backend %d never evicted; trace:\n%v", victim, (*tape)[mark:])
	}
	// Detection latency: three missed 5ms beats. The CI gate holds this
	// at <= 25ms cluster-wide; the unit test pins the same bound.
	if lat := evicted.Time - killedAt; lat > 25*sim.Millisecond {
		t.Errorf("eviction took %v after the kill, want <= 25ms", lat)
	}
	if _, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.FailoverRead), mark, k.Now()+30*sim.Millisecond); !ok {
		t.Fatal("no failover read ever served from a surviving replica")
	}

	x := audit.ExpectEvents((*tape)[mark:])
	if err := x.Seq(
		audit.On(audit.NodeKilled).OnNode(victimNode),
		audit.On(audit.HealthMissedBeat).OnNode(victimNode).Times(3),
		audit.On(audit.HealthEvicted).OnNode(victimNode),
	); err != nil {
		t.Fatalf("eviction sequence: %v", err)
	}
	if err := x.Seq(
		audit.On(audit.NodeKilled).OnNode(victimNode),
		audit.On(audit.FailoverRead),
	); err != nil {
		t.Fatalf("failover sequence: %v", err)
	}
	// The monitor must not double-report: exactly one eviction, and no
	// restore for a backend that never came back.
	if n := x.Count(audit.On(audit.HealthEvicted).OnNode(victimNode)); n != 1 {
		t.Errorf("%d eviction events for one kill", n)
	}
	if n := x.Count(audit.On(audit.HealthRestored)); n != 0 {
		t.Errorf("%d restore events without a revive", n)
	}
	if *falseMisses != 0 {
		t.Errorf("%d false misses during failover", *falseMisses)
	}
	monotonicPerNode(t, *tape)
}

// TestChaosRestoreEventSequence takes a backend through the full
// kill -> evict -> revive -> restore cycle, waiting on each transition
// event and asserting the complete ordered sequence at the end.
func TestChaosRestoreEventSequence(t *testing.T) {
	cl, cli, tape := auditedCluster(4, 2)
	k := cl.Sys.K
	keys := chaosKeys(150)
	populateChaos(t, cl, cli, keys)

	const victim = 2
	victimNode := int(cl.Backends[victim].Node.Id)
	mark := len(*tape)
	killMarked(cl, victim)
	if _, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.HealthEvicted).OnNode(victimNode), mark, k.Now()+80*sim.Millisecond); !ok {
		t.Fatal("kill never produced an eviction event")
	}

	revivedAt := k.Now()
	reviveMarked(cl, victim)
	restored, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.HealthRestored).OnNode(victimNode), mark, revivedAt+80*sim.Millisecond)
	if !ok {
		t.Fatal("revived backend never restored to the ring")
	}
	if lat := restored.Time - revivedAt; lat > 25*sim.Millisecond {
		t.Errorf("restore took %v after the revive, want <= 25ms", lat)
	}

	// The moment the restore event fires, membership is already back:
	// the event is emitted at the membership change, not after it.
	if !cl.Live(victim) {
		t.Error("restore event fired but Live() still reports the backend down")
	}
	onRing := false
	for _, m := range cl.Ring.Members() {
		if m == victim {
			onRing = true
		}
	}
	if !onRing {
		t.Error("restore event fired but the backend is not on the ring")
	}

	if err := audit.ExpectEvents((*tape)[mark:]).Seq(
		audit.On(audit.NodeKilled).OnNode(victimNode),
		audit.On(audit.HealthMissedBeat).OnNode(victimNode).Times(3),
		audit.On(audit.HealthEvicted).OnNode(victimNode),
		audit.On(audit.NodeRevived).OnNode(victimNode),
		audit.On(audit.HealthRestored).OnNode(victimNode),
	); err != nil {
		t.Fatalf("kill/revive sequence: %v", err)
	}
	monotonicPerNode(t, *tape)
}

// TestHealthMonitorRestoreFollowsEviction watches the ring's membership
// of a killed and revived backend: the monitor takes it off the ring,
// then puts it back, once each and in that order.
func TestHealthMonitorRestoreFollowsEviction(t *testing.T) {
	cl, _, tape := auditedCluster(4, 2)
	k := cl.Sys.K
	// Let the cluster boot and the first heartbeats land before the kill.
	k.RunUntil(10 * sim.Millisecond)

	const victim = 1
	var changes []bool
	cl.Watch(func(b int, up bool) {
		if b == victim {
			changes = append(changes, up)
		}
	})
	killMarked(cl, victim)
	if _, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.HealthEvicted), 0, k.Now()+80*sim.Millisecond); !ok {
		t.Fatal("no eviction")
	}
	reviveMarked(cl, victim)
	if _, ok := audit.RunUntilMatch(k, tape,
		audit.On(audit.HealthRestored), 0, k.Now()+80*sim.Millisecond); !ok {
		t.Fatal("no restore")
	}
	if len(changes) != 2 || changes[0] || !changes[1] {
		t.Fatalf("backend %d's membership changes were %v, want [false true]: evicted, then restored", victim, changes)
	}
}
