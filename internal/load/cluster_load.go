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

// KVBatchClient is a KVClient that can read several keys as one batch.
// When ClusterLoadConfig.MultiGet > 1 and the client implements it,
// read arrivals are issued through GetMulti; outs is index-aligned with
// keys.
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
	// StatsTopK is how many keys the per-key frequency summary keeps
	// (default DefaultStatsTopK).
	StatsTopK int
	// MultiGet, when > 1, turns each read arrival into a batch of that
	// many keys (the first from NextOp, the rest drawn from the same
	// popularity distribution), issued through KVBatchClient.GetMulti
	// when the client supports it and as independent Gets otherwise.
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

// ClusterLoadResult is one measured run through the client Ebb.
type ClusterLoadResult struct {
	TargetRPS   float64
	AchievedRPS float64
	Mean        sim.Time
	P99         sim.Time
	Completed   uint64
	Hits        uint64
	Misses      uint64
	NetErrs     uint64
	// Timeline is the per-bucket completion record, for locating a
	// failure window inside the run.
	Timeline []LoadBucket
	// BucketWidth is the timeline resolution used.
	BucketWidth sim.Time
	// MeasuredFrom is the absolute virtual time measurement started,
	// for correlating external events (evictions) with the timeline.
	MeasuredFrom sim.Time
	// Populated counts keys successfully written during prepopulation.
	Populated int
	// Keys is the measured window's per-key frequency summary (the
	// offered hot-key share).
	Keys KeyStats
	// PerSource is each load source's completed-operation count (one
	// entry per frontend in a RunClusterLoadMulti run; a single entry
	// for RunClusterLoad).
	PerSource []uint64
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

// loadSource is one frontend's arrival process: its own client, cores,
// and RNG, offering an equal slice of the target rate.
type loadSource struct {
	kv        KVClient
	mgrs      []*event.Manager
	arrRng    *sim.Rng
	rate      float64
	completed uint64
}

// clusterLoad is one running generator.
type clusterLoad struct {
	cfg       ClusterLoadConfig
	work      *Workload
	sources   []*loadSource
	rec       *sim.Recorder
	keyFreq   *keyCounter
	measStart sim.Time
	measEnd   sim.Time
	timeline  []LoadBucket
	completed uint64
	hits      uint64
	misses    uint64
	netErrs   uint64
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
	m := &clusterLoad{
		cfg:  cfg,
		work: NewWorkload(cfg.ETC, cfg.Seed),
		rec:  sim.NewRecorder(int(cfg.TargetRPS * float64(cfg.Duration) / 1e9)),
	}
	for i := range rts {
		m.sources = append(m.sources, &loadSource{
			kv:     kvs[i],
			mgrs:   rts[i].Mgrs(),
			arrRng: sim.NewRng(cfg.Seed ^ 0x9e3779b9 ^ uint64(i)*0xbf58476d1ce4e5b9),
			rate:   cfg.TargetRPS / float64(len(rts)),
		})
	}
	m.keyFreq = newKeyCounter(len(m.work.Keys))
	k := rts[0].Kernel()

	// Prepopulate through the first client: every key lands on its full
	// replica set via acknowledged quorum writes, so reads during later
	// faults have live replicas to fail over to.
	populated := 0
	pop := m.sources[0]
	for i := range m.work.Keys {
		i := i
		pop.mgrs[i%len(pop.mgrs)].Spawn(func(c *event.Ctx) {
			pop.kv.Set(c, m.work.Keys[i], m.work.Values[i], func(c *event.Ctx, o OpOutcome) {
				if o.OK {
					populated++
				}
			})
		})
	}
	popDeadline := k.Now() + 2*sim.Second
	for populated < len(m.work.Keys) && k.Now() < popDeadline {
		k.RunFor(1 * sim.Millisecond)
	}

	m.measStart = k.Now() + cfg.Warmup
	m.measEnd = m.measStart + cfg.Duration
	nBuckets := int((cfg.Duration + cfg.Bucket - 1) / cfg.Bucket)
	m.timeline = make([]LoadBucket, nBuckets)
	for i := range m.timeline {
		m.timeline[i].Start = sim.Time(i) * cfg.Bucket
	}
	for _, ev := range cfg.Events {
		ev := ev
		k.PostAt(m.measStart+ev.At, ev.Fn)
	}

	for _, src := range m.sources {
		m.scheduleNextArrival(k, src)
	}
	k.RunUntil(m.measEnd + 20*sim.Millisecond)

	perSource := make([]uint64, len(m.sources))
	for i, src := range m.sources {
		perSource[i] = src.completed
	}
	return ClusterLoadResult{
		TargetRPS:    cfg.TargetRPS,
		AchievedRPS:  float64(m.completed) / (float64(cfg.Duration) / 1e9),
		Mean:         m.rec.Mean(),
		P99:          m.rec.Percentile(99),
		Completed:    m.completed,
		Hits:         m.hits,
		Misses:       m.misses,
		NetErrs:      m.netErrs,
		Timeline:     m.timeline,
		BucketWidth:  cfg.Bucket,
		MeasuredFrom: m.measStart,
		Populated:    populated,
		Keys:         m.keyFreq.stats(cfg.StatsTopK),
		PerSource:    perSource,
	}
}

// scheduleNextArrival generates one source's open-loop Poisson process,
// spreading submissions round-robin across that source's cores.
func (m *clusterLoad) scheduleNextArrival(k *sim.Kernel, src *loadSource) {
	gap := src.arrRng.Exp(1e9 / src.rate)
	k.Post(sim.Time(gap), func() {
		if k.Now() >= m.measEnd {
			return
		}
		keyIdx, isGet := m.work.NextOp()
		arrival := k.Now()
		if arrival >= m.measStart {
			m.keyFreq.note(keyIdx)
		}
		mgr := src.mgrs[int(arrival/sim.Microsecond)%len(src.mgrs)]
		if isGet && m.cfg.MultiGet > 1 {
			idxs := make([]int, m.cfg.MultiGet)
			idxs[0] = keyIdx
			for j := 1; j < len(idxs); j++ {
				idxs[j] = m.work.NextKey()
				if arrival >= m.measStart {
					m.keyFreq.note(idxs[j])
				}
			}
			mgr.Spawn(func(c *event.Ctx) { m.submitMulti(c, src, arrival, idxs) })
		} else {
			mgr.Spawn(func(c *event.Ctx) {
				done := func(c *event.Ctx, o OpOutcome) { m.record(c, src, arrival, isGet, o) }
				if isGet {
					src.kv.Get(c, m.work.Keys[keyIdx], done)
				} else {
					src.kv.Set(c, m.work.Keys[keyIdx], m.work.newValue(), done)
				}
			})
		}
		m.scheduleNextArrival(k, src)
	})
}

// submitMulti issues one multiget arrival: through the client's batched
// GetMulti when it has one, as independent Gets otherwise (the per-op
// baseline pays one round per key either way). Each key scores as its
// own operation.
func (m *clusterLoad) submitMulti(c *event.Ctx, src *loadSource, arrival sim.Time, idxs []int) {
	keys := make([][]byte, len(idxs))
	for j, idx := range idxs {
		keys[j] = m.work.Keys[idx]
	}
	if bkv, ok := src.kv.(KVBatchClient); ok {
		bkv.GetMulti(c, keys, func(c *event.Ctx, outs []OpOutcome) {
			for _, o := range outs {
				m.record(c, src, arrival, true, o)
			}
		})
		return
	}
	for _, key := range keys {
		src.kv.Get(c, key, func(c *event.Ctx, o OpOutcome) {
			m.record(c, src, arrival, true, o)
		})
	}
}

// record scores one completion into the timeline bucket it finished in.
func (m *clusterLoad) record(c *event.Ctx, src *loadSource, arrival sim.Time, isGet bool, o OpOutcome) {
	now := c.Now()
	if arrival < m.measStart || now > m.measEnd {
		return
	}
	idx := int((now - m.measStart) / m.cfg.Bucket)
	if idx < 0 || idx >= len(m.timeline) {
		return
	}
	b := &m.timeline[idx]
	switch {
	case o.NetErr:
		m.netErrs++
		b.NetErrs++
		return
	case isGet && o.Miss:
		m.misses++
		b.Misses++
		return
	}
	m.completed++
	b.Completed++
	src.completed++
	if isGet {
		m.hits++
		b.Hits++
	}
	m.rec.Add(now - arrival)
}
