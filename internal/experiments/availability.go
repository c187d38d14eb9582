package experiments

import (
	"fmt"
	"hash/fnv"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// clusterKV adapts the replicated client Ebb to the load generator's
// KVClient interface.
type clusterKV struct{ cli *cluster.Client }

func outcome(r cluster.Response) load.OpOutcome {
	switch {
	case r.OK():
		return load.OpOutcome{OK: true}
	case r.NetworkError():
		return load.OpOutcome{NetErr: true}
	default:
		return load.OpOutcome{Miss: true}
	}
}

func (a clusterKV) Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Get(c, key, func(c *event.Ctx, r cluster.Response) { done(c, outcome(r)) })
}

func (a clusterKV) Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Set(c, key, value, 0, func(c *event.Ctx, r cluster.Response) { done(c, outcome(r)) })
}

func (a clusterKV) GetMulti(c *event.Ctx, keys [][]byte, done func(c *event.Ctx, outs []load.OpOutcome)) {
	a.cli.GetMulti(c, keys, func(c *event.Ctx, rs []cluster.Response) {
		outs := make([]load.OpOutcome, len(rs))
		for i, r := range rs {
			outs[i] = outcome(r)
		}
		done(c, outs)
	})
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// maxEvictMs is the ceiling for kill-to-eviction detection latency
// (15ms measured: three missed 5ms beats).
const maxEvictMs = 25.0

// maxRestoreLag is the ceiling from a revive to the ring restoring the
// backend.
const maxRestoreLag = 50 * sim.Millisecond

// specAvailability boots a 4-backend, R=2 cluster with health
// monitoring, drives the ETC workload through the frontend's client
// Ebb, kills backend 0 mid-measurement and, at Smoke, revives it - the
// multi-backend extension of the paper's §4.2 methodology aimed at the
// question the scaling experiment cannot answer: what happens when
// hardware goes away under load. It reports throughput and hit rate
// before the kill, through the failure window (kill to ring eviction)
// and after the ring rerouted. Full kills at 60ms of 160ms at 40k RPS;
// Smoke kills at 40ms and revives at 70ms of 110ms at 25k RPS, so the
// restore path runs too.
//
// The gated numbers are derived from the event stream alone, so a
// silently suppressed stream fails here even if throughput looks
// healthy, and audit_fnv64 - the FNV-1a hash of the stream in the
// JSON-lines encoding -events writes - pins that the same seed replays
// the same run, event for event. The conditions: the cluster was
// healthy before the fault, the failure window keeps 60 % of it and the
// rerouted ring 90 %, a revived backend is restored within 50ms, and no
// read misses throughout - every key the dead backend held has a live
// replica.
func specAvailability(s Scale, log *audit.Log) Report {
	const (
		backends = 4
		replicas = 2
		victim   = 0
		bucket   = 2 * sim.Millisecond
	)
	rps := pick(s, 25000.0, 40000)
	window := pick(s, 110*sim.Millisecond, 160*sim.Millisecond)
	killAt := pick(s, 40*sim.Millisecond, 60*sim.Millisecond)
	reviveAt := pick(s, 70*sim.Millisecond, 0)

	var tape audit.Tape
	hash := fnv.New64a()
	lines := audit.NewFileSink(hash)
	alog := audit.NewLog(&tape, lines)
	cl := cluster.NewCluster(backends, cluster.Options{
		CoresPerBackend: 1,
		Replicas:        replicas,
		FrontendCores:   4, // the frontend is the client here, not a bottleneck under study
		Audit:           alog,
	})
	front := cl.Sys.Frontend()
	// Bound one replica operation so reads fail over before the monitor
	// evicts.
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{RequestTimeout: 4 * sim.Millisecond})
	mon := cluster.NewHealthMonitor(cl, front)
	k := cl.Sys.K
	evictedAt, restoredAt := sim.Time(-1), sim.Time(-1)
	cl.Watch(func(b int, up bool) {
		if b != victim {
			return
		}
		if up {
			restoredAt = k.Now()
		} else {
			evictedAt = k.Now()
		}
	})
	mon.Start()

	etc := load.DefaultETC()
	etc.KeySpace = 4000 // smaller than the full workload so prepopulation stays cheap
	victimNode := int(cl.Backends[victim].Node.Id)
	events := []load.ChaosEvent{{
		At: killAt,
		Fn: func() {
			alog.Emit(k.Now(), victimNode, audit.NodeKilled, audit.Fields{"backend": victim})
			cl.Backends[victim].Node.Kill()
		},
	}}
	if reviveAt > 0 {
		events = append(events, load.ChaosEvent{
			At: reviveAt,
			Fn: func() {
				alog.Emit(k.Now(), victimNode, audit.NodeRevived, audit.Fields{"backend": victim})
				cl.Backends[victim].Node.Revive()
			},
		})
	}
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: rps,
		Warmup:    10 * sim.Millisecond,
		Duration:  window,
		Bucket:    bucket,
		Seed:      42,
		ETC:       etc,
		Events:    events,
	})
	// Offsets from measurement start (-1 if the event never happened).
	if evictedAt >= 0 {
		evictedAt -= res.MeasuredFrom
	}
	if restoredAt >= 0 {
		restoredAt -= res.MeasuredFrom
	}

	// Phase boundaries. The failure window runs from the kill to ring
	// eviction; if eviction never happened, assume a generous window so
	// the numbers still mean something.
	failEnd := evictedAt
	if failEnd < 0 {
		failEnd = killAt + 25*sim.Millisecond
	}
	if failEnd-killAt < bucket {
		failEnd = killAt + bucket
	}
	recoverFrom := failEnd + 2*bucket // settle past the eviction bucket
	recoverTo := window
	if reviveAt > 0 && reviveAt < recoverTo {
		recoverTo = reviveAt
	}
	preRPS, preHit := res.WindowStats(0, killAt)
	failRPS, failHit := res.WindowStats(killAt, failEnd)
	recRPS, recHit := res.WindowStats(recoverFrom, recoverTo)

	text := fmt.Sprintf("Availability: %d backends, R=%d, %.0f RPS offered, kill backend %d at %.0fms\n",
		backends, replicas, rps, victim, float64(killAt)/1e6)
	if evictedAt >= 0 {
		text += fmt.Sprintf("  evicted at %.1fms (detection latency %.1fms)\n",
			float64(evictedAt)/1e6, float64(evictedAt-killAt)/1e6)
	} else {
		text += "  never evicted\n"
	}
	if reviveAt > 0 {
		if restoredAt >= 0 {
			text += fmt.Sprintf("  revived at %.0fms, restored to ring at %.1fms\n",
				float64(reviveAt)/1e6, float64(restoredAt)/1e6)
		} else {
			text += fmt.Sprintf("  revived at %.0fms, never restored\n", float64(reviveAt)/1e6)
		}
	}
	text += fmt.Sprintf("  pre-kill:  %8.0f RPS  hit rate %.4f\n", preRPS, preHit)
	text += fmt.Sprintf("  failure:   %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		failRPS, failHit, pct(failRPS, preRPS))
	text += fmt.Sprintf("  recovered: %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		recRPS, recHit, pct(recRPS, preRPS))
	text += fmt.Sprintf("  totals: %d completed, %d misses, %d network errors, mean %.1fus p99 %.1fus\n",
		res.Samples, res.Misses, res.NetErrs, res.Mean.Micros(), res.P99.Micros())
	text += fmt.Sprintf("  %-8s %10s %8s %8s %8s\n", "t(ms)", "RPS", "hits", "misses", "netErrs")
	for _, b := range res.Timeline {
		bucketRPS := float64(b.Completed) / (float64(res.BucketWidth) / 1e9)
		text += fmt.Sprintf("  %-8.1f %10.0f %8d %8d %8d\n",
			float64(b.Start)/1e6, bucketRPS, b.Hits, b.Misses, b.NetErrs)
	}
	rep := Report{Text: text}
	err := lines.Close() // flushes the last encoded lines into the hash
	rep.require(err == nil, "event stream did not encode: %v", err)

	// The caller's log (a nil one drops them) gets the run's events
	// after it, in the order they happened.
	for _, e := range tape {
		log.Emit(e.Time, e.Node, e.Kind, e.Fields)
	}
	x := audit.ExpectEvents(tape)
	evictMs := -1.0
	kill, haveKill := x.First(audit.On(audit.NodeKilled))
	evict, haveEvict := x.First(audit.On(audit.HealthEvicted))
	if haveKill && haveEvict {
		evictMs = float64(evict.Time-kill.Time) / 1e6
	}
	restores := x.Count(audit.On(audit.HealthRestored))
	rep.metric("total_events", len(tape))
	rep.metric("kill_events", x.Count(audit.On(audit.NodeKilled)))
	rep.metric("revive_events", x.Count(audit.On(audit.NodeRevived)))
	rep.metric("eviction_events", x.Count(audit.On(audit.HealthEvicted)))
	rep.metric("restore_events", restores)
	rep.metric("missed_beat_events", x.Count(audit.On(audit.HealthMissedBeat)))
	rep.metric("eviction_latency_ms", evictMs)
	rep.metric("audit_fnv64", fmt.Sprintf("%016x", hash.Sum64()))
	rep.metric("floor_eviction_latency_ms", maxEvictMs)
	rep.require(haveEvict && evictedAt >= 0, "no eviction: event stream %v, ring watch %v", haveEvict, evictedAt >= 0)
	rep.require(evictMs > 0 && evictMs <= maxEvictMs, "eviction latency %.1fms outside (0, %.1fms]", evictMs, maxEvictMs)
	rep.require(res.Misses == 0, "%d false misses: replicated reads must be served by surviving replicas", res.Misses)
	rep.require(preRPS >= 0.8*rps, "pre-kill throughput %.0f RPS below 80%% of offered %.0f: cluster unhealthy before the fault", preRPS, rps)
	rep.require(failRPS >= 0.6*preRPS, "failure-window throughput %.0f RPS is %.0f%% of pre-kill %.0f, want >= 60%%", failRPS, pct(failRPS, preRPS), preRPS)
	rep.require(recRPS >= 0.9*preRPS, "recovered throughput %.0f RPS is %.0f%% of pre-kill %.0f, want >= 90%%", recRPS, pct(recRPS, preRPS), preRPS)
	// The failure's causal order: the kill, the monitor's three missed
	// beats on the victim, its eviction, and at Smoke the revive and the
	// restore.
	order := []audit.Matcher{
		audit.On(audit.NodeKilled).OnNode(victimNode),
		audit.On(audit.HealthMissedBeat).OnNode(victimNode).Times(3),
		audit.On(audit.HealthEvicted).OnNode(victimNode),
	}
	if reviveAt > 0 {
		order = append(order, audit.On(audit.NodeRevived).OnNode(victimNode), audit.On(audit.HealthRestored).OnNode(victimNode))
	}
	err = x.Seq(order...)
	rep.require(err == nil, "the failure's events out of order: %v", err)
	if reviveAt > 0 {
		rep.require(restores > 0, "event stream recorded no restore after the revive")
		rep.require(restoredAt > reviveAt && restoredAt-reviveAt <= maxRestoreLag,
			"restored to the ring at %v for a revive at %v, want within (0, %v]", restoredAt, reviveAt, maxRestoreLag)
	}
	return rep
}
