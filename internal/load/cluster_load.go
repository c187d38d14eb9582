package load

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// OpOutcome classifies one replicated-cluster operation as the load
// generator scores it.
type OpOutcome struct {
	// OK: the operation succeeded (write reached quorum / read was
	// served by some replica).
	OK bool
	// Miss: a read was answered authoritatively with key-not-found.
	Miss bool
	// NetErr: the operation failed in the network or at a quorum.
	NetErr bool
}

// KVClient abstracts the replicated client Ebb for the load generator,
// keeping this package decoupled from the cluster package (the
// experiment harness adapts cluster.Client to it).
type KVClient interface {
	Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o OpOutcome))
	Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o OpOutcome))
}

// KVBatchClient is a KVClient that can read several keys as one batch,
// which ClusterLoadConfig.MultiGet > 1 requires; outs is index-aligned
// with keys.
type KVBatchClient interface {
	KVClient
	GetMulti(c *event.Ctx, keys [][]byte, done func(c *event.Ctx, outs []OpOutcome))
}

// ChaosEvent is a scheduled fault (or any side effect) injected during
// a measured run; At is relative to measurement start.
type ChaosEvent struct {
	At sim.Time
	Fn func()
}

// ClusterLoadConfig drives one client-Ebb load run.
type ClusterLoadConfig struct {
	// TargetRPS is the open-loop Poisson arrival rate.
	TargetRPS float64
	// Warmup runs load before measurement begins.
	Warmup sim.Time
	// Duration is the measured window.
	Duration sim.Time
	// Bucket is the timeline resolution (default Duration/50).
	Bucket sim.Time
	// Seed feeds the workload and arrival processes.
	Seed uint64
	// ETC is the workload shape; the zero value selects DefaultETC.
	ETC ETCConfig
	// Events are faults injected at fixed offsets into the measurement.
	Events []ChaosEvent
	// MultiGet, when > 1, turns each read arrival into a batch of that
	// many keys (the first from NextOp, the rest drawn from the same
	// popularity distribution), issued through KVBatchClient.GetMulti.
	// Every key scores as one operation, so throughput stays comparable
	// with single-key runs.
	MultiGet int
}

// LoadBucket is one timeline slot of a measured run.
type LoadBucket struct {
	// Start is the bucket's offset from measurement start.
	Start sim.Time
	// Completed counts operations that finished (successfully) in this
	// bucket, by completion time.
	Completed uint64
	// Hits and Misses partition completed reads.
	Hits, Misses uint64
	// NetErrs counts operations that failed with a network/quorum error.
	NetErrs uint64
}

// ClusterLoadResult is one measured run through the client Ebb. Its
// Samples are the successful operations; Hits, Misses and NetErrs total
// the timeline.
type ClusterLoadResult struct {
	Summary
	Hits    uint64
	Misses  uint64
	NetErrs uint64
	// Timeline is the per-bucket completion record, for locating a
	// failure window inside the run.
	Timeline []LoadBucket
	// BucketWidth is the timeline resolution used.
	BucketWidth sim.Time
	// MeasuredFrom is the absolute virtual time measurement started,
	// for correlating external events (evictions) with the timeline.
	MeasuredFrom sim.Time
	// Keys is the measured window's per-key frequency summary (the
	// offered hot-key share).
	Keys KeyStats
}

// WindowStats aggregates the timeline buckets fully inside [from, to)
// - offsets from measurement start - into throughput (completed
// operations per second) and read hit rate. Experiments use it to
// compare phases of one run: before/after a kill, a join, or a
// decommission.
func (r ClusterLoadResult) WindowStats(from, to sim.Time) (rps, hitRate float64) {
	var completed, hits, misses uint64
	var covered sim.Time
	for _, b := range r.Timeline {
		if b.Start >= from && b.Start+r.BucketWidth <= to {
			completed += b.Completed
			hits += b.Hits
			misses += b.Misses
			covered += r.BucketWidth
		}
	}
	if covered == 0 {
		return 0, 0
	}
	rps = float64(completed) / (float64(covered) / 1e9)
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return rps, hitRate
}

// RunClusterLoad drives the ETC workload through a replicated cluster
// client: prepopulates the keyspace with acknowledged (quorum) writes,
// then offers open-loop Poisson arrivals for Warmup+Duration,
// recording a completion timeline. Unlike RunMutilateSharded - which
// aims raw connections at each shard - every operation here takes the
// full replicated data path: ring lookup, write fan-out, read
// failover. cfg.Events inject faults mid-measurement, which is how the
// availability experiment kills a backend under load.
func RunClusterLoad(rt appnet.Runtime, kv KVClient, cfg ClusterLoadConfig) ClusterLoadResult {
	return RunClusterLoadMulti([]appnet.Runtime{rt}, []KVClient{kv}, cfg)
}

// RunClusterLoadMulti is RunClusterLoad over a frontend tier: one load
// source per (runtime, client) pair, each offering TargetRPS/N Poisson
// arrivals from its own cores through its own client Ebb, all sharing
// one workload and scored into one aggregated timeline. All runtimes
// must live on one simulation kernel.
func RunClusterLoadMulti(rts []appnet.Runtime, kvs []KVClient, cfg ClusterLoadConfig) ClusterLoadResult {
	if len(rts) == 0 || len(rts) != len(kvs) {
		panic("load: RunClusterLoadMulti needs one runtime per client")
	}
	if cfg.ETC.KeySpace == 0 {
		cfg.ETC = DefaultETC()
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = cfg.Duration / 50
	}
	work := NewWorkload(cfg.ETC, cfg.Seed)
	k := rts[0].Kernel()

	// Prepopulate through the first client: every key lands on its full
	// replica set via acknowledged quorum writes, so reads during later
	// faults have live replicas to fail over to.
	populated := 0
	mgrs := rts[0].Mgrs()
	for i := range work.Keys {
		mgrs[i%len(mgrs)].Spawn(func(c *event.Ctx) {
			kvs[0].Set(c, work.Keys[i], work.Values[i], func(_ *event.Ctx, o OpOutcome) {
				if o.OK {
					populated++
				}
			})
		})
	}
	for deadline := k.Now() + 2*sim.Second; populated < len(work.Keys) && k.Now() < deadline; {
		k.RunFor(sim.Millisecond)
	}

	e := newEngine(k, cfg.TargetRPS, k.Now()+cfg.Warmup, cfg.Duration, len(work.Keys))
	l := &clusterLoad{e: e, bucket: cfg.Bucket, timeline: make([]LoadBucket, (cfg.Duration+cfg.Bucket-1)/cfg.Bucket)}
	for i := range l.timeline {
		l.timeline[i].Start = sim.Time(i) * cfg.Bucket
	}
	for _, ev := range cfg.Events {
		k.PostAt(e.start+ev.At, ev.Fn)
	}
	// One source per frontend, each from its own cores through its own
	// client, spreading submissions across those cores by arrival time.
	for i, kv := range kvs {
		mgrs := rts[i].Mgrs()
		rng := sim.NewRng(cfg.Seed ^ 0x9e3779b9 ^ uint64(i)*0xbf58476d1ce4e5b9)
		e.arrivals(rng, cfg.TargetRPS/float64(len(rts)), func(at sim.Time) {
			key, isGet := work.NextOp()
			e.note(at, key)
			mgr := mgrs[int(at/sim.Microsecond)%len(mgrs)]
			if isGet && cfg.MultiGet > 1 {
				keys := make([][]byte, cfg.MultiGet)
				keys[0] = work.Keys[key]
				for j := 1; j < len(keys); j++ {
					idx := work.NextKey()
					e.note(at, idx)
					keys[j] = work.Keys[idx]
				}
				mgr.Spawn(func(c *event.Ctx) {
					kv.(KVBatchClient).GetMulti(c, keys, func(c *event.Ctx, outs []OpOutcome) {
						for _, o := range outs {
							l.record(at, c.Now(), true, o)
						}
					})
				})
				return
			}
			mgr.Spawn(func(c *event.Ctx) {
				done := func(c *event.Ctx, o OpOutcome) { l.record(at, c.Now(), isGet, o) }
				if isGet {
					kv.Get(c, work.Keys[key], done)
				} else {
					kv.Set(c, work.Keys[key], work.newValue(), done)
				}
			})
		})
	}
	e.run()

	res := ClusterLoadResult{
		Summary:      e.summary(),
		Timeline:     l.timeline,
		BucketWidth:  cfg.Bucket,
		MeasuredFrom: e.start,
		Keys:         e.keys.stats(DefaultStatsTopK),
	}
	for _, b := range l.timeline {
		res.Hits += b.Hits
		res.Misses += b.Misses
		res.NetErrs += b.NetErrs
	}
	return res
}

// clusterLoad scores a run's completions into its timeline.
type clusterLoad struct {
	e        *engine
	bucket   sim.Time
	timeline []LoadBucket
}

// record scores one completion into the bucket it finished in; the last
// bucket is closed on the right, so a completion at the window's end
// counts like the engine says it does.
func (l *clusterLoad) record(at, now sim.Time, isGet bool, o OpOutcome) {
	if !l.e.measured(at, now) {
		return
	}
	b := &l.timeline[min(int((now-l.e.start)/l.bucket), len(l.timeline)-1)]
	switch {
	case o.NetErr:
		b.NetErrs++
	case isGet && o.Miss:
		b.Misses++
	default:
		b.Completed++
		if isGet {
			b.Hits++
		}
		l.e.rec.Add(now - at)
	}
}
