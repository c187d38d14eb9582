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

// AvailabilityOptions tunes the failure-under-load experiment. The zero
// value selects a 4-backend, R=2 deployment killed mid-measurement.
type AvailabilityOptions struct {
	// Backends is the native backend count (default 4).
	Backends int
	// CoresPerBackend sizes each backend (default 1).
	CoresPerBackend int
	// Replicas is the replication factor R (default 2).
	Replicas int
	// FrontendCores sizes the hosted frontend driving the load
	// (default 4: the frontend is the client here, not a bottleneck
	// under study).
	FrontendCores int
	// TargetRPS is the offered load (default 40000).
	TargetRPS float64
	// Duration is the measured window (default 160ms).
	Duration sim.Time
	// KillAt is when the victim loses its network, relative to
	// measurement start (default 60ms).
	KillAt sim.Time
	// ReviveAt, when positive, revives the victim at that offset.
	ReviveAt sim.Time
	// KillBackend selects the victim (default 0).
	KillBackend int
	// Bucket is the timeline resolution (default 2ms).
	Bucket sim.Time
	// RequestTimeout bounds one replica operation at the client
	// (default 4ms) so reads fail over before the monitor evicts.
	RequestTimeout sim.Time
	// Health tunes the failure detector (defaults per HealthConfig).
	Health cluster.HealthConfig
	// KeySpace sizes the ETC key population (default 4000, smaller
	// than the full workload so prepopulation stays cheap).
	KeySpace int
	// Audit, when non-nil, receives the run's typed event stream:
	// chaos.kill/chaos.revive markers from the fault injector here plus
	// everything the cluster's state machines emit (missed beats,
	// evictions, restores, TCP transitions).
	Audit *audit.Log
}

func (o *AvailabilityOptions) applyDefaults() {
	if o.Backends <= 0 {
		o.Backends = 4
	}
	if o.CoresPerBackend <= 0 {
		o.CoresPerBackend = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.FrontendCores <= 0 {
		o.FrontendCores = 4
	}
	if o.TargetRPS <= 0 {
		o.TargetRPS = 40000
	}
	if o.Duration <= 0 {
		o.Duration = 160 * sim.Millisecond
	}
	if o.KillAt <= 0 {
		o.KillAt = 60 * sim.Millisecond
	}
	if o.Bucket <= 0 {
		o.Bucket = 2 * sim.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 4 * sim.Millisecond
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 4000
	}
}

// AvailabilityResult reports throughput and hit rate through a backend
// failure: before the kill, during the failure window (kill to ring
// eviction), and after the ring has rerouted.
type AvailabilityResult struct {
	Opt  AvailabilityOptions
	Load load.ClusterLoadResult
	// EvictedAt/RestoredAt are offsets from measurement start (-1 if
	// the event never happened).
	EvictedAt  sim.Time
	RestoredAt sim.Time
	// Phase throughputs (completed operations per second).
	PreKillRPS   float64
	FailureRPS   float64
	RecoveredRPS float64
	// Phase read hit rates.
	PreKillHitRate   float64
	FailureHitRate   float64
	RecoveredHitRate float64
}

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

// Availability boots a replicated cluster with health monitoring,
// drives the ETC workload through the frontend's client Ebb, kills a
// backend mid-measurement (and optionally revives it), and reports
// throughput and hit rate through the failure: the multi-backend
// extension of the paper's §4.2 methodology aimed at the question the
// scaling experiment cannot answer - what happens when hardware goes
// away under load.
func Availability(opt AvailabilityOptions) AvailabilityResult {
	opt.applyDefaults()
	cl := cluster.NewCluster(opt.Backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		Replicas:        opt.Replicas,
		FrontendCores:   opt.FrontendCores,
		Audit:           opt.Audit,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		RequestTimeout: opt.RequestTimeout,
	})
	mon := cluster.NewHealthMonitor(cl, front, opt.Health)
	k := cl.Sys.K
	evictedAt, restoredAt := sim.Time(-1), sim.Time(-1)
	cl.Watch(func(b int, up bool) {
		if b != opt.KillBackend {
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
	etc.KeySpace = opt.KeySpace
	victimNode := int(cl.Backends[opt.KillBackend].Node.Id)
	events := []load.ChaosEvent{{
		At: opt.KillAt,
		Fn: func() {
			if a := opt.Audit; a != nil {
				a.Emit(k.Now(), victimNode, audit.NodeKilled, audit.Fields{"backend": opt.KillBackend})
			}
			cl.Backends[opt.KillBackend].Node.Kill()
		},
	}}
	if opt.ReviveAt > 0 {
		events = append(events, load.ChaosEvent{
			At: opt.ReviveAt,
			Fn: func() {
				if a := opt.Audit; a != nil {
					a.Emit(k.Now(), victimNode, audit.NodeRevived, audit.Fields{"backend": opt.KillBackend})
				}
				cl.Backends[opt.KillBackend].Node.Revive()
			},
		})
	}
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: opt.TargetRPS,
		Warmup:    10 * sim.Millisecond,
		Duration:  opt.Duration,
		Bucket:    opt.Bucket,
		Seed:      42,
		ETC:       etc,
		Events:    events,
	})

	out := AvailabilityResult{Opt: opt, Load: res, EvictedAt: -1, RestoredAt: -1}
	if evictedAt >= 0 {
		out.EvictedAt = evictedAt - res.MeasuredFrom
	}
	if restoredAt >= 0 {
		out.RestoredAt = restoredAt - res.MeasuredFrom
	}

	// Phase boundaries. The failure window runs from the kill to ring
	// eviction; if eviction never happened, assume a generous window so
	// the numbers still mean something.
	failEnd := out.EvictedAt
	if failEnd < 0 {
		failEnd = opt.KillAt + 25*sim.Millisecond
	}
	if failEnd-opt.KillAt < opt.Bucket {
		failEnd = opt.KillAt + opt.Bucket
	}
	recoverFrom := failEnd + 2*opt.Bucket // settle past the eviction bucket
	recoverTo := opt.Duration
	if opt.ReviveAt > 0 && opt.ReviveAt < recoverTo {
		recoverTo = opt.ReviveAt
	}
	out.PreKillRPS, out.PreKillHitRate = res.WindowStats(0, opt.KillAt)
	out.FailureRPS, out.FailureHitRate = res.WindowStats(opt.KillAt, failEnd)
	out.RecoveredRPS, out.RecoveredHitRate = res.WindowStats(recoverFrom, recoverTo)
	return out
}

// FormatAvailability renders the run: phase summary plus the timeline.
func FormatAvailability(r AvailabilityResult) string {
	out := fmt.Sprintf("Availability: %d backends, R=%d, %.0f RPS offered, kill backend %d at %.0fms\n",
		r.Opt.Backends, r.Opt.Replicas, r.Opt.TargetRPS, r.Opt.KillBackend, float64(r.Opt.KillAt)/1e6)
	if r.EvictedAt >= 0 {
		out += fmt.Sprintf("  evicted at %.1fms (detection latency %.1fms)\n",
			float64(r.EvictedAt)/1e6, float64(r.EvictedAt-r.Opt.KillAt)/1e6)
	} else {
		out += "  never evicted\n"
	}
	if r.Opt.ReviveAt > 0 {
		if r.RestoredAt >= 0 {
			out += fmt.Sprintf("  revived at %.0fms, restored to ring at %.1fms\n",
				float64(r.Opt.ReviveAt)/1e6, float64(r.RestoredAt)/1e6)
		} else {
			out += fmt.Sprintf("  revived at %.0fms, never restored\n", float64(r.Opt.ReviveAt)/1e6)
		}
	}
	out += fmt.Sprintf("  pre-kill:  %8.0f RPS  hit rate %.4f\n", r.PreKillRPS, r.PreKillHitRate)
	out += fmt.Sprintf("  failure:   %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		r.FailureRPS, r.FailureHitRate, pct(r.FailureRPS, r.PreKillRPS))
	out += fmt.Sprintf("  recovered: %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		r.RecoveredRPS, r.RecoveredHitRate, pct(r.RecoveredRPS, r.PreKillRPS))
	out += fmt.Sprintf("  totals: %d completed, %d misses, %d network errors, mean %.1fus p99 %.1fus\n",
		r.Load.Samples, r.Load.Misses, r.Load.NetErrs, r.Load.Mean.Micros(), r.Load.P99.Micros())
	out += fmt.Sprintf("  %-8s %10s %8s %8s %8s\n", "t(ms)", "RPS", "hits", "misses", "netErrs")
	for _, b := range r.Load.Timeline {
		rps := float64(b.Completed) / (float64(r.Load.BucketWidth) / 1e9)
		out += fmt.Sprintf("  %-8.1f %10.0f %8d %8d %8d\n",
			float64(b.Start)/1e6, rps, b.Hits, b.Misses, b.NetErrs)
	}
	return out
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// maxEvictMs is the ceiling for kill-to-eviction detection latency
// (15ms measured: three missed 5ms beats).
const maxEvictMs = 25.0

// eventTally is the audit sink the availability Spec counts from; it
// passes every event on to the caller's log (a nil one drops them).
type eventTally struct {
	events []audit.Event
	next   *audit.Log
}

func (t *eventTally) Emit(e audit.Event) {
	t.events = append(t.events, e)
	t.next.Emit(e.Time, e.Node, e.Kind, e.Fields)
}

// specAvailability runs the audited failure: Full is the default kill
// at 60ms of 160ms; Smoke kills at 40ms and revives at 70ms of 110ms so
// the restore path runs too. The gated numbers are derived from the
// event stream alone, so a silently suppressed stream fails here even
// if throughput looks healthy, and audit_fnv64 - the FNV-1a hash of the
// stream in the JSON-lines encoding -events writes - pins that the same
// seed replays the same run, event for event.
func specAvailability(s Scale, log *audit.Log) Report {
	tally, hash := &eventTally{next: log}, fnv.New64a()
	lines := audit.NewFileSink(hash)
	opt := AvailabilityOptions{Audit: audit.NewLog(tally, lines)}
	if s == Smoke {
		opt.TargetRPS, opt.Duration = 25000, 110*sim.Millisecond
		opt.KillAt, opt.ReviveAt = 40*sim.Millisecond, 70*sim.Millisecond
	}
	res := Availability(opt)
	rep := Report{Text: FormatAvailability(res)}
	err := lines.Close() // flushes the last encoded lines into the hash
	rep.require(err == nil, "event stream did not encode: %v", err)

	x := audit.ExpectEvents(tally.events)
	evictMs := -1.0
	kill, haveKill := x.First(audit.On(audit.NodeKilled))
	evict, haveEvict := x.First(audit.On(audit.HealthEvicted))
	if haveKill && haveEvict {
		evictMs = float64(evict.Time-kill.Time) / 1e6
	}
	restores := x.Count(audit.On(audit.HealthRestored))
	rep.metric("total_events", len(tally.events))
	rep.metric("kill_events", x.Count(audit.On(audit.NodeKilled)))
	rep.metric("revive_events", x.Count(audit.On(audit.NodeRevived)))
	rep.metric("eviction_events", x.Count(audit.On(audit.HealthEvicted)))
	rep.metric("restore_events", restores)
	rep.metric("missed_beat_events", x.Count(audit.On(audit.HealthMissedBeat)))
	rep.metric("eviction_latency_ms", evictMs)
	rep.metric("audit_fnv64", fmt.Sprintf("%016x", hash.Sum64()))
	rep.metric("floor_eviction_latency_ms", maxEvictMs)
	rep.require(haveEvict, "event stream recorded no eviction")
	rep.require(restores > 0 || res.Opt.ReviveAt <= 0, "event stream recorded no restore after the revive")
	rep.require(evictMs >= 0 && evictMs <= maxEvictMs, "eviction latency %.1fms outside [0, %.1fms]", evictMs, maxEvictMs)
	return rep
}
