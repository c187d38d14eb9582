package experiments

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// ElasticityOptions tunes the elasticity-under-load experiment: a
// cluster serving the ETC workload while a backend joins mid-run and
// another is decommissioned later. The zero value selects a 3-backend,
// R=1 deployment - the setting where elasticity hurts most, since
// without replication a moved key has exactly one home and a removed
// backend's keys have none.
type ElasticityOptions struct {
	// Backends is the initial native backend count (default 3).
	Backends int
	// CoresPerBackend sizes each backend (default 1).
	CoresPerBackend int
	// Replicas is the replication factor R (default 1).
	Replicas int
	// FrontendCores sizes the hosted frontend driving the load
	// (default 4).
	FrontendCores int
	// TargetRPS is the offered load (default 30000).
	TargetRPS float64
	// Duration is the measured window (default 240ms).
	Duration sim.Time
	// JoinAt is when the new backend joins, relative to measurement
	// start (default 60ms).
	JoinAt sim.Time
	// DecommissionAt, when positive, removes DecommissionBackend at that
	// offset (default 150ms; set negative to skip).
	DecommissionAt sim.Time
	// DecommissionBackend selects the backend to remove (default 0).
	DecommissionBackend int
	// KillBeforeDecommission makes the removal a permanent loss: the
	// node dies and is evicted first, so re-replication must stream from
	// surviving replicas instead of draining the node itself.
	KillBeforeDecommission bool
	// Bucket is the timeline resolution (default 2ms).
	Bucket sim.Time
	// RequestTimeout bounds one replica operation at the client
	// (default 4ms).
	RequestTimeout sim.Time
	// KeySpace sizes the ETC key population (default 3000).
	KeySpace int
	// Stream selects the migration engine: true streams moved key shares
	// through the rebalancer, false is the miss-faulting baseline
	// (AddBackend / EvictBackend - what the cluster did before the
	// migrator existed).
	Stream bool
}

func (o *ElasticityOptions) applyDefaults() {
	if o.Backends <= 0 {
		o.Backends = 3
	}
	if o.CoresPerBackend <= 0 {
		o.CoresPerBackend = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.FrontendCores <= 0 {
		o.FrontendCores = 4
	}
	if o.TargetRPS <= 0 {
		o.TargetRPS = 30000
	}
	if o.Duration <= 0 {
		o.Duration = 240 * sim.Millisecond
	}
	if o.JoinAt <= 0 {
		o.JoinAt = 60 * sim.Millisecond
	}
	if o.DecommissionAt == 0 {
		o.DecommissionAt = 150 * sim.Millisecond
	}
	if o.Bucket <= 0 {
		o.Bucket = 2 * sim.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 4 * sim.Millisecond
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 3000
	}
}

// ElasticityResult reports hit rate and throughput through a mid-run
// join and decommission, plus the migration engine's own numbers.
type ElasticityResult struct {
	Opt  ElasticityOptions
	Load load.ClusterLoadResult
	// Phase stats: before the join, after the join (to the
	// decommission), and after the decommission.
	PreJoinRPS, PreJoinHitRate       float64
	PostJoinRPS, PostJoinHitRate     float64
	PostDecommRPS, PostDecommHitRate float64
	// JoinStreamTime is how long the join migration streamed (-1 when
	// the baseline faulted the share in as misses instead). JoinMoved
	// counts streamed entries.
	JoinStreamTime sim.Time
	JoinMoved      int
	// RestoreRTime is the time from DecommissionBackend to every moved
	// range being re-replicated - the time to restore R (-1 for the
	// baseline, which never restores it). DecommMoved counts entries.
	RestoreRTime sim.Time
	DecommMoved  int
	// MinLiveReplicas is, over the whole key population after the run,
	// the fewest live replicas any key has; FullyReplicated reports
	// whether that equals the intended R.
	MinLiveReplicas int
	FullyReplicated bool
}

// Elasticity boots a cluster, drives the ETC workload through the
// client Ebb, joins a backend mid-measurement and decommissions another
// later, and reports hit rate through both transitions. With
// opt.Stream the rebalancer migrates key shares (join) and
// re-replicates (decommission); without it the cluster does what stock
// memcached deployments do - fault moved keys in as misses and abandon
// a removed backend's keys. The paper's case for keeping the cache warm
// (§4.2: memcached performance is the hit rate) extends here to
// elasticity: the miss-faulting cliff is exactly what the migration
// engine exists to remove.
func Elasticity(opt ElasticityOptions) ElasticityResult {
	opt.applyDefaults()
	cl := cluster.NewCluster(opt.Backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		Replicas:        opt.Replicas,
		FrontendCores:   opt.FrontendCores,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		RequestTimeout: opt.RequestTimeout,
	})

	joinStream, restoreR := sim.Time(-1), sim.Time(-1)
	joinMoved, decommMoved := 0, 0
	var mig *cluster.Migrator
	if opt.Stream {
		mig = cluster.NewMigrator(cl, front, cluster.MigratorConfig{})
		mig.OnComplete(func(m *cluster.Migration) {
			if m.Aborted {
				return
			}
			switch m.Kind {
			case "join":
				joinStream = m.DoneAt - m.StartedAt
				joinMoved = m.Moved
			case "decommission":
				restoreR = m.DoneAt - m.StartedAt
				decommMoved = m.Moved
			}
		})
	}

	events := []load.ChaosEvent{{
		At: opt.JoinAt,
		Fn: func() {
			if opt.Stream {
				mig.Join(opt.CoresPerBackend)
			} else {
				cl.AddBackend(opt.CoresPerBackend)
			}
		},
	}}
	if opt.DecommissionAt > 0 {
		victim := opt.DecommissionBackend
		if opt.KillBeforeDecommission {
			events = append(events, load.ChaosEvent{
				At: opt.DecommissionAt - 5*sim.Millisecond,
				Fn: func() {
					cl.Backends[victim].Node.Kill()
					cl.EvictBackend(victim)
				},
			})
		}
		events = append(events, load.ChaosEvent{
			At: opt.DecommissionAt,
			Fn: func() {
				if !opt.Stream {
					// The baseline has no re-replication: removal is an
					// eviction, and the backend's key share is simply lost.
					if cl.Live(victim) {
						cl.EvictBackend(victim)
					}
					return
				}
				if mig.Active() {
					// The join migration is still streaming (a tight
					// schedule or a retry loop): decommission as soon as
					// it concludes rather than panicking on overlap.
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
	}

	etc := load.DefaultETC()
	etc.KeySpace = opt.KeySpace
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: opt.TargetRPS,
		Warmup:    10 * sim.Millisecond,
		Duration:  opt.Duration,
		Bucket:    opt.Bucket,
		Seed:      42,
		ETC:       etc,
		Events:    events,
	})

	out := ElasticityResult{
		Opt: opt, Load: res,
		JoinStreamTime: joinStream, JoinMoved: joinMoved,
		RestoreRTime: restoreR, DecommMoved: decommMoved,
	}
	postJoinEnd := opt.Duration
	if opt.DecommissionAt > 0 {
		postJoinEnd = opt.DecommissionAt
	}
	out.PreJoinRPS, out.PreJoinHitRate = res.WindowStats(0, opt.JoinAt)
	out.PostJoinRPS, out.PostJoinHitRate = res.WindowStats(opt.JoinAt, postJoinEnd)
	if opt.DecommissionAt > 0 {
		out.PostDecommRPS, out.PostDecommHitRate = res.WindowStats(opt.DecommissionAt, opt.Duration)
	}

	// Replica census over the whole population: the fewest live replicas
	// any key ended the run with.
	work := load.NewWorkload(etc, 42)
	out.MinLiveReplicas = -1
	for _, key := range work.Keys {
		n := cl.LiveHolders(key)
		if out.MinLiveReplicas < 0 || n < out.MinLiveReplicas {
			out.MinLiveReplicas = n
		}
	}
	out.FullyReplicated = out.MinLiveReplicas >= opt.Replicas
	return out
}

// ElasticityCompare runs the experiment twice - streamed migration and
// miss-faulting baseline - over identical workloads and schedules.
func ElasticityCompare(opt ElasticityOptions) (streamed, baseline ElasticityResult) {
	opt.Stream = true
	streamed = Elasticity(opt)
	opt.Stream = false
	baseline = Elasticity(opt)
	return streamed, baseline
}

// FormatElasticity renders one run.
func FormatElasticity(r ElasticityResult) string {
	mode := "baseline (miss-faulting)"
	if r.Opt.Stream {
		mode = "streamed migration"
	}
	out := fmt.Sprintf("Elasticity [%s]: %d backends, R=%d, %.0f RPS offered, join at %.0fms",
		mode, r.Opt.Backends, r.Opt.Replicas, r.Opt.TargetRPS, float64(r.Opt.JoinAt)/1e6)
	if r.Opt.DecommissionAt > 0 {
		kind := "drain"
		if r.Opt.KillBeforeDecommission {
			kind = "dead"
		}
		out += fmt.Sprintf(", decommission backend %d (%s) at %.0fms",
			r.Opt.DecommissionBackend, kind, float64(r.Opt.DecommissionAt)/1e6)
	}
	out += "\n"
	out += fmt.Sprintf("  pre-join:    %8.0f RPS  hit rate %.4f\n", r.PreJoinRPS, r.PreJoinHitRate)
	out += fmt.Sprintf("  post-join:   %8.0f RPS  hit rate %.4f", r.PostJoinRPS, r.PostJoinHitRate)
	if r.JoinStreamTime >= 0 {
		out += fmt.Sprintf("  (share streamed in %.2fms, %d entries)", float64(r.JoinStreamTime)/1e6, r.JoinMoved)
	}
	out += "\n"
	if r.Opt.DecommissionAt > 0 {
		out += fmt.Sprintf("  post-decomm: %8.0f RPS  hit rate %.4f", r.PostDecommRPS, r.PostDecommHitRate)
		if r.RestoreRTime >= 0 {
			out += fmt.Sprintf("  (R restored in %.2fms, %d entries)", float64(r.RestoreRTime)/1e6, r.DecommMoved)
		} else {
			out += "  (R never restored)"
		}
		out += "\n"
	}
	out += fmt.Sprintf("  replicas: min %d live of R=%d intended; fully replicated: %v\n",
		r.MinLiveReplicas, r.Opt.Replicas, r.FullyReplicated)
	out += fmt.Sprintf("  totals: %d completed, %d misses, %d network errors, mean %.1fus p99 %.1fus\n",
		r.Load.Samples, r.Load.Misses, r.Load.NetErrs, r.Load.Mean.Micros(), r.Load.P99.Micros())
	return out
}

// elasticitySpec runs the streamed-vs-baseline comparison on the given
// deployment. Full keeps the default schedule (join at 60ms,
// decommission at 150ms of 240ms, 30k RPS); Smoke compresses it to a
// join at 30ms and a decommission at 80ms of 120ms at half the load.
func elasticitySpec(opt ElasticityOptions) func(Scale, *audit.Log) Report {
	return func(s Scale, _ *audit.Log) Report {
		opt := opt
		if s == Smoke {
			opt.TargetRPS, opt.Duration, opt.KeySpace = 15000, 120*sim.Millisecond, 2000
			opt.JoinAt, opt.DecommissionAt = 30*sim.Millisecond, 80*sim.Millisecond
		}
		streamed, baseline := ElasticityCompare(opt)
		text := FormatElasticity(streamed) + "\n" + FormatElasticity(baseline) + "\n" +
			fmt.Sprintf("post-join hit rate:   %.4f streamed vs %.4f baseline\n", streamed.PostJoinHitRate, baseline.PostJoinHitRate) +
			fmt.Sprintf("post-decomm hit rate: %.4f streamed vs %.4f baseline\n", streamed.PostDecommHitRate, baseline.PostDecommHitRate)
		if streamed.RestoreRTime >= 0 {
			text += fmt.Sprintf("time to restore R:    %.2fms streamed vs never (baseline)\n", float64(streamed.RestoreRTime)/1e6)
		}
		return Report{Text: text}
	}
}
