package experiments

import (
	"fmt"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// elasticRun is one run of the elasticity experiment: hit rate and
// throughput through a mid-run join and decommission, plus the
// migration engine's own numbers.
type elasticRun struct {
	load load.ClusterLoadResult
	// Phase stats: before the join, after the join (to the
	// decommission), and after the decommission.
	preJoinRPS, preJoinHit       float64
	postJoinRPS, postJoinHit     float64
	postDecommRPS, postDecommHit float64
	// joinStream is how long the join migration streamed (-1 when the
	// baseline faulted the share in as misses instead); joinMoved counts
	// streamed entries.
	joinStream sim.Time
	joinMoved  int
	// restoreR is the time from the decommission to every moved range
	// being re-replicated (-1 for the baseline, which never restores
	// it); decommMoved counts entries.
	restoreR    sim.Time
	decommMoved int
	// minLive is, over the whole key population after the run, the
	// fewest live replicas any key has.
	minLive int
}

// elasticity is one deployment and schedule the two arms share.
type elasticity struct {
	backends, replicas int
	// killFirst makes the removal a permanent loss: the node dies and is
	// evicted first, so re-replication must stream from surviving
	// replicas instead of draining the node itself.
	killFirst                bool
	rps                      float64
	window, joinAt, decommAt sim.Time
	keys                     int
}

// run boots a cluster, drives the ETC workload through the client Ebb,
// joins a backend at joinAt and decommissions backend 0 at decommAt.
// With stream the rebalancer migrates key shares (join) and
// re-replicates (decommission); without it the cluster does what stock
// memcached deployments do - fault moved keys in as misses and abandon
// a removed backend's keys. The paper's case for keeping the cache warm
// (§4.2: memcached performance is the hit rate) extends here to
// elasticity: the miss-faulting cliff is exactly what the migration
// engine exists to remove.
func (o elasticity) run(stream bool) elasticRun {
	const victim = 0
	cl := cluster.NewCluster(o.backends, cluster.Options{
		CoresPerBackend: 1,
		Replicas:        o.replicas,
		FrontendCores:   4,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{RequestTimeout: 4 * sim.Millisecond})

	out := elasticRun{joinStream: -1, restoreR: -1}
	var mig *cluster.Migrator
	if stream {
		mig = cluster.NewMigrator(cl, front)
		mig.OnComplete(func(m *cluster.Migration) {
			if m.Aborted {
				return
			}
			switch m.Kind {
			case "join":
				out.joinStream, out.joinMoved = m.DoneAt-m.StartedAt, m.Moved
			case "decommission":
				out.restoreR, out.decommMoved = m.DoneAt-m.StartedAt, m.Moved
			}
		})
	}

	events := []load.ChaosEvent{{
		At: o.joinAt,
		Fn: func() {
			if stream {
				mig.Join(1)
			} else {
				cl.AddBackend(1)
			}
		},
	}}
	if o.killFirst {
		events = append(events, load.ChaosEvent{
			At: o.decommAt - 5*sim.Millisecond,
			Fn: func() {
				cl.Backends[victim].Node.Kill()
				cl.EvictBackend(victim)
			},
		})
	}
	events = append(events, load.ChaosEvent{
		At: o.decommAt,
		Fn: func() {
			if !stream {
				// The baseline has no re-replication: removal is an
				// eviction, and the backend's key share is simply lost.
				if cl.Live(victim) {
					cl.EvictBackend(victim)
				}
				return
			}
			if mig.Active() {
				// The join migration is still streaming (a tight
				// schedule or a retry loop): decommission as soon as it
				// concludes rather than panicking on overlap.
				mig.OnComplete(func(*cluster.Migration) {
					if !mig.Active() && !cl.Decommissioned(victim) {
						mig.Decommission(victim)
					}
				})
				return
			}
			mig.Decommission(victim)
		},
	})

	etc := load.DefaultETC()
	etc.KeySpace = o.keys
	out.load = load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: o.rps,
		Warmup:    10 * sim.Millisecond,
		Duration:  o.window,
		Bucket:    2 * sim.Millisecond,
		Seed:      42,
		ETC:       etc,
		Events:    events,
	})
	out.preJoinRPS, out.preJoinHit = out.load.WindowStats(0, o.joinAt)
	out.postJoinRPS, out.postJoinHit = out.load.WindowStats(o.joinAt, o.decommAt)
	out.postDecommRPS, out.postDecommHit = out.load.WindowStats(o.decommAt, o.window)

	// Replica census over the whole population: the fewest live replicas
	// any key ended the run with.
	out.minLive = -1
	for _, key := range load.NewWorkload(etc, 42).Keys {
		if n := liveHolders(cl, key); out.minLive < 0 || n < out.minLive {
			out.minLive = n
		}
	}
	return out
}

// liveHolders counts the backends that hold key live: its actual
// replica count, as distinct from the ring's intended one.
func liveHolders(cl *cluster.Cluster, key []byte) int {
	n := 0
	for i := range cl.Backends {
		if _, ok := liveEntry(cl, i, string(key)); ok {
			n++
		}
	}
	return n
}

// liveEntry reads backend bi's entry for key straight from its store,
// as only a checker can: none if the backend is off the ring or its
// node is down, or if the entry is expired or behind a due flush, which
// no request path would serve.
func liveEntry(cl *cluster.Cluster, bi int, key string) (*memcached.Entry, bool) {
	b := cl.Backends[bi]
	if !cl.Live(bi) || !b.Node.Alive() {
		return nil, false
	}
	e, ok := b.Srv.Store.Get(key)
	return e, ok && b.Srv.EntryLive(e, cl.Sys.K.Now())
}

// format renders one run.
func (o elasticity) format(r elasticRun, stream bool) string {
	mode, kind := "baseline (miss-faulting)", "drain"
	if stream {
		mode = "streamed migration"
	}
	if o.killFirst {
		kind = "dead"
	}
	out := fmt.Sprintf("Elasticity [%s]: %d backends, R=%d, %.0f RPS offered, join at %.0fms, decommission backend 0 (%s) at %.0fms\n",
		mode, o.backends, o.replicas, o.rps, float64(o.joinAt)/1e6, kind, float64(o.decommAt)/1e6)
	out += fmt.Sprintf("  pre-join:    %8.0f RPS  hit rate %.4f\n", r.preJoinRPS, r.preJoinHit)
	out += fmt.Sprintf("  post-join:   %8.0f RPS  hit rate %.4f", r.postJoinRPS, r.postJoinHit)
	if r.joinStream >= 0 {
		out += fmt.Sprintf("  (share streamed in %.2fms, %d entries)", float64(r.joinStream)/1e6, r.joinMoved)
	}
	out += fmt.Sprintf("\n  post-decomm: %8.0f RPS  hit rate %.4f", r.postDecommRPS, r.postDecommHit)
	if r.restoreR >= 0 {
		out += fmt.Sprintf("  (R restored in %.2fms, %d entries)\n", float64(r.restoreR)/1e6, r.decommMoved)
	} else {
		out += "  (R never restored)\n"
	}
	out += fmt.Sprintf("  replicas: min %d live of R=%d intended; fully replicated: %v\n",
		r.minLive, o.replicas, r.minLive >= o.replicas)
	out += fmt.Sprintf("  totals: %d completed, %d misses, %d network errors, mean %.1fus p99 %.1fus\n",
		r.load.Samples, r.load.Misses, r.load.NetErrs, r.load.Mean.Micros(), r.load.P99.Micros())
	return out
}

// elasticitySpec runs the streamed migration and the miss-faulting
// baseline over identical workloads and schedules, on a deployment of
// the given size and replication, with the decommissioned backend
// drained live or killed first. Full joins at 60ms and decommissions at
// 150ms of 240ms at 30k RPS over 3000 keys; Smoke joins at 30ms and
// decommissions at 80ms of 120ms at half the load over 2000 keys.
//
// On both deployments the cluster must be healthy before the join, the
// join must stream its share within 50ms, the streamed run must restore
// full replication and the baseline's census must show the replication
// it lost. A live drain at R=1 must beat the baseline where elasticity
// hurts most - without replication a moved key has one home and a
// removed backend's keys have none: the streamed post-join hit rate
// stays at 0.99 or above where the baseline shows its cliff, and the
// decommission keeps every key while the baseline loses the victim's.
// A permanent loss at R=2 must re-replicate from the survivors within
// 100ms to exactly R live copies, and with R=2 every read has a live
// replica throughout: the kill window surfaces as failovers, never as
// misses.
func elasticitySpec(backends, replicas int, killFirst bool) func(Scale, *audit.Log) Report {
	return func(s Scale, _ *audit.Log) Report {
		o := elasticity{
			backends: backends, replicas: replicas, killFirst: killFirst,
			rps:      pick(s, 15000.0, 30000),
			window:   pick(s, 120*sim.Millisecond, 240*sim.Millisecond),
			joinAt:   pick(s, 30*sim.Millisecond, 60*sim.Millisecond),
			decommAt: pick(s, 80*sim.Millisecond, 150*sim.Millisecond),
			keys:     pick(s, 2000, 3000),
		}
		streamed, baseline := o.run(true), o.run(false)
		text := o.format(streamed, true) + "\n" + o.format(baseline, false) + "\n" +
			fmt.Sprintf("post-join hit rate:   %.4f streamed vs %.4f baseline\n", streamed.postJoinHit, baseline.postJoinHit) +
			fmt.Sprintf("post-decomm hit rate: %.4f streamed vs %.4f baseline\n", streamed.postDecommHit, baseline.postDecommHit)
		if streamed.restoreR >= 0 {
			text += fmt.Sprintf("time to restore R:    %.2fms streamed vs never (baseline)\n", float64(streamed.restoreR)/1e6)
		}
		rep := Report{Text: text}
		rep.metric("streamed_join_ns", int64(streamed.joinStream))
		rep.metric("streamed_join_moved", streamed.joinMoved)
		rep.metric("streamed_restore_r_ns", int64(streamed.restoreR))
		rep.metric("streamed_restore_moved", streamed.decommMoved)
		rep.metric("streamed_pre_join_hit", streamed.preJoinHit)
		rep.metric("streamed_post_join_hit", streamed.postJoinHit)
		rep.metric("streamed_post_decomm_hit", streamed.postDecommHit)
		rep.metric("streamed_min_live", streamed.minLive)
		rep.metric("streamed_misses", streamed.load.Misses)
		rep.metric("streamed_p99_ns", int64(streamed.load.P99))
		rep.metric("baseline_pre_join_hit", baseline.preJoinHit)
		rep.metric("baseline_post_join_hit", baseline.postJoinHit)
		rep.metric("baseline_post_decomm_hit", baseline.postDecommHit)
		rep.metric("baseline_min_live", baseline.minLive)
		rep.require(streamed.preJoinRPS >= 0.8*o.rps, "pre-join throughput %.0f below 80%% of offered %.0f", streamed.preJoinRPS, o.rps)
		rep.require(streamed.joinStream >= 0 && streamed.joinMoved > 0, "streamed join did not run a migration")
		rep.require(streamed.joinStream <= 50*sim.Millisecond, "join share took %v to stream", streamed.joinStream)
		rep.require(streamed.restoreR >= 0, "streamed decommission never completed")
		rep.require(streamed.minLive >= replicas, "streamed run not fully replicated: min %d live replicas of R=%d", streamed.minLive, replicas)
		rep.require(baseline.minLive < replicas, "baseline eviction reports full replication: replica census broken")
		if killFirst {
			rep.require(streamed.restoreR <= 100*sim.Millisecond, "restore-R took %v", streamed.restoreR)
			rep.require(streamed.minLive == replicas, "min %d live replicas after re-replication, want exactly %d", streamed.minLive, replicas)
			rep.require(streamed.load.Misses == 0, "%d false misses across join + permanent loss", streamed.load.Misses)
			return rep
		}
		rep.require(streamed.postJoinHit > baseline.postJoinHit, "post-join hit rate: streamed %.4f <= baseline %.4f", streamed.postJoinHit, baseline.postJoinHit)
		rep.require(baseline.postJoinHit <= 0.995, "baseline post-join hit rate %.4f shows no miss-faulting cliff: comparison vacuous", baseline.postJoinHit)
		rep.require(streamed.postJoinHit >= 0.99, "streamed post-join hit rate %.4f: migration did not keep the cache warm", streamed.postJoinHit)
		rep.require(streamed.postDecommHit > baseline.postDecommHit, "post-decommission hit rate: streamed %.4f <= baseline %.4f", streamed.postDecommHit, baseline.postDecommHit)
		return rep
	}
}
