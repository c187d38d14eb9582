package experiments

import (
	"fmt"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// MemoryPressureOptions tunes the bounded-store experiment: the ETC
// workload offered a dataset PressureFactor times the deployment's
// aggregate memory budget, so the slab-classed eviction policy - not
// the allocator - decides what stays resident. The zero value selects
// the defaults.
type MemoryPressureOptions struct {
	// Backends is the shard count (default 2).
	Backends int
	// CoresPerBackend sizes each backend (default 1).
	CoresPerBackend int
	// FrontendCores sizes the hosted frontend (default 4).
	FrontendCores int
	// BudgetBytes is each backend's store budget (default 8 MiB, the
	// page allocator's minimum block).
	BudgetBytes uint64
	// PressureFactor sizes the offered dataset relative to the aggregate
	// budget (default 2: half the population cannot be resident).
	PressureFactor float64
	// TargetRPS is the offered load (default 120000).
	TargetRPS float64
	// Duration is the measured window (default 60ms).
	Duration sim.Time
	// ValueMean is the ETC value-size mean (default 1200 - large enough
	// that the population actually spans the slab classes).
	ValueMean float64
	// ZipfSkew is the key-popularity exponent (default 1.2: a hot head
	// the LRU should keep resident and the hot-key cache should absorb).
	ZipfSkew float64
	// ExpireEvery marks every Nth key with a 1-second exptime (default
	// 10); the post-run probe advances past the deadline and verifies
	// not one of them is served from any layer.
	ExpireEvery int
	// Cache carries the hot-key cache knobs (Enable is forced on).
	Cache cluster.HotKeyOptions
	// Seed feeds the workload (default 42).
	Seed uint64
}

func (o *MemoryPressureOptions) applyDefaults() {
	if o.Backends <= 0 {
		o.Backends = 2
	}
	if o.CoresPerBackend <= 0 {
		o.CoresPerBackend = 1
	}
	if o.FrontendCores <= 0 {
		o.FrontendCores = 4
	}
	if o.BudgetBytes == 0 {
		o.BudgetBytes = 8 << 20
	}
	if o.PressureFactor <= 0 {
		o.PressureFactor = 2
	}
	if o.TargetRPS <= 0 {
		o.TargetRPS = 120000
	}
	if o.Duration <= 0 {
		o.Duration = 60 * sim.Millisecond
	}
	if o.ValueMean <= 0 {
		o.ValueMean = 1200
	}
	if o.ZipfSkew <= 0 {
		o.ZipfSkew = 1.2
	}
	if o.ExpireEvery <= 0 {
		o.ExpireEvery = 10
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// MemoryPressureRow is one eviction policy measured under pressure.
type MemoryPressureRow struct {
	Policy  string
	Load    load.ClusterLoadResult
	HitRate float64
	// Stores aggregates the backends' bounded-store counters; PeakBytes
	// and BudgetBytes are per-backend maxima (the bound being gated).
	Stores memcached.BoundedStoreStats
	// MemBounded reports PeakBytes <= BudgetBytes on every backend.
	MemBounded bool
	// Cache is the client's hot-key counters for this run.
	Cache cluster.HotKeyStats
	// ExpiredServed counts post-deadline reads of expiring keys that
	// still returned a value - from the store or any core's cache. The
	// acceptance gate is zero.
	ExpiredServed int
	// StoreLiveExpired counts expired entries a backend store still
	// reported as live after the deadline (must be zero; physically
	// resident-but-dead is fine, lazily reclaimed on touch).
	StoreLiveExpired int
	// ProbeKeys is how many expiring keys the probe checked.
	ProbeKeys int
}

// MemoryPressureResult is the LRU-vs-FIFO comparison.
type MemoryPressureResult struct {
	Opt  MemoryPressureOptions
	Rows []MemoryPressureRow
	// LRUAdvantage is the LRU row's hit rate minus the FIFO row's - what
	// recency tracking buys under a skewed workload at 2x pressure.
	LRUAdvantage float64
}

// mempKV adapts the client to the load generator, attaching an exptime
// to every write of a probe key so expiry runs under real pressure, and
// running the canonical cache-aside pattern: a read miss refills the
// key (the "database fetch + set" every memcached deployment does).
// The refill is what makes eviction policy observable - under demand
// fill, popularity drives insertion, so an LRU that keeps the re-read
// keys resident sustains a higher hit rate than a FIFO that ages them
// out regardless of use.
type mempKV struct {
	cli     *cluster.Client
	exptime map[string]int64
	fill    map[string][]byte
}

func (a mempKV) Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Get(c, key, func(c *event.Ctx, r cluster.Response) {
		o := outcome(r)
		if o.Miss {
			if v, ok := a.fill[string(key)]; ok {
				a.cli.SetWithExpiry(c, key, v, 0, a.exptime[string(key)], nil)
			}
		}
		done(c, o)
	})
}

func (a mempKV) Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.SetWithExpiry(c, key, value, 0, a.exptime[string(key)], func(c *event.Ctx, r cluster.Response) {
		done(c, outcome(r))
	})
}

// MemoryPressure runs the ETC workload against bounded backend stores
// holding PressureFactor times less than the offered population, once
// per eviction policy, and reports hit rate, the memory bound, and the
// expiry probe. The hot-key cache stays on: under a Zipf head the cache
// absorbs the hottest reads, so the store's LRU capacity is spent on
// the warm middle - the "cache holds the tail" claim the README quotes.
func MemoryPressure(opt MemoryPressureOptions) MemoryPressureResult {
	opt.applyDefaults()
	cacheOpt := opt.Cache
	cacheOpt.Enable = true
	cacheOpt = cacheOpt.WithDefaults()
	opt.Cache = cacheOpt

	out := MemoryPressureResult{Opt: opt}
	for _, policy := range []memcached.EvictionPolicy{memcached.EvictLRU, memcached.EvictFIFO} {
		out.Rows = append(out.Rows, memoryPressurePoint(opt, policy))
	}
	out.LRUAdvantage = out.Rows[0].HitRate - out.Rows[1].HitRate
	return out
}

func memoryPressurePoint(opt MemoryPressureOptions, policy memcached.EvictionPolicy) MemoryPressureRow {
	row := MemoryPressureRow{Policy: policy.String()}

	// The store factory runs inside NewCluster, before the kernel
	// reference exists; the clock indirects through kern so eviction
	// scans see real sim time once the deployment is live.
	var kern *sim.Kernel
	clock := func() sim.Time {
		if kern == nil {
			return 0
		}
		return kern.Now()
	}
	var stores []*memcached.BoundedStore
	cl := cluster.NewCluster(opt.Backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		Replicas:        1,
		FrontendCores:   opt.FrontendCores,
		HotKey:          opt.Cache,
		Store: func() memcached.Store {
			s := memcached.NewBoundedStore(opt.BudgetBytes, policy, clock)
			stores = append(stores, s)
			return s
		},
	})
	kern = cl.Sys.K
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{})

	// Size the population to PressureFactor x the aggregate budget.
	etc := load.DefaultETC()
	etc.ValueMean = opt.ValueMean
	etc.ValueMax = 4096
	etc.ZipfSkew = opt.ZipfSkew
	perItem := opt.ValueMean + 45 + 56 // value + mean ETC key + item overhead
	etc.KeySpace = int(opt.PressureFactor * float64(opt.BudgetBytes) * float64(opt.Backends) / perItem)

	// Every ExpireEvery-th key writes with a 1-second exptime. The
	// population is rebuilt here (same config and seed as the run's) to
	// know the key bytes up front.
	work := load.NewWorkload(etc, opt.Seed)
	exptime := make(map[string]int64, len(work.Keys)/opt.ExpireEvery+1)
	fill := make(map[string][]byte, len(work.Keys))
	var probeKeys [][]byte
	for i, key := range work.Keys {
		fill[string(key)] = work.Values[i]
		if i%opt.ExpireEvery == 0 {
			exptime[string(key)] = 1
			probeKeys = append(probeKeys, key)
		}
	}

	row.Load = load.RunClusterLoad(front.Runtime, mempKV{cli: cli, exptime: exptime, fill: fill}, load.ClusterLoadConfig{
		TargetRPS: opt.TargetRPS,
		Warmup:    10 * sim.Millisecond,
		Duration:  opt.Duration,
		Seed:      opt.Seed,
		ETC:       etc,
	})
	if reads := row.Load.Hits + row.Load.Misses; reads > 0 {
		row.HitRate = float64(row.Load.Hits) / float64(reads)
	}
	row.Cache = cli.HotKeyStats()

	row.MemBounded = true
	for _, s := range stores {
		st := s.Stats()
		row.Stores.Items += st.Items
		row.Stores.ItemBytes += st.ItemBytes
		row.Stores.Evictions += st.Evictions
		row.Stores.Expired += st.Expired
		row.Stores.Rejected += st.Rejected
		if st.PeakBytes > row.Stores.PeakBytes {
			row.Stores.PeakBytes = st.PeakBytes
		}
		row.Stores.BudgetBytes = st.BudgetBytes
		if st.PeakBytes > st.BudgetBytes {
			row.MemBounded = false
		}
	}

	// Expiry probe: cross every probe key's deadline (their last write
	// was at latest the end of measurement, so +2s clears all of them),
	// then read each through the client - hot-key cache included - and
	// peek each backend store. Nothing may serve.
	k := cl.Sys.K
	k.RunUntil(k.Now() + 2*sim.Second)
	row.ProbeKeys = len(probeKeys)
	front.Spawn(func(c *event.Ctx) {
		for _, key := range probeKeys {
			cli.Get(c, key, func(c *event.Ctx, r cluster.Response) {
				if r.OK() {
					row.ExpiredServed++
				}
			})
		}
	})
	k.RunUntil(k.Now() + 50*sim.Millisecond)
	for _, key := range probeKeys {
		for _, b := range cl.Backends {
			if e, ok := b.Srv.Store.Get(string(key)); ok && b.Srv.EntryLive(e, k.Now()) {
				row.StoreLiveExpired++
			}
		}
	}
	return row
}

// minMempHitRate is the floor for the LRU hit rate at 2x pressure
// (0.79 measured).
const minMempHitRate = 0.55

// specMemoryPressure runs both policies: Full at 120k RPS for 60ms with
// cache promotion at 4 sketch hits, Smoke at 60k RPS for 25ms with the
// cluster's default promotion. The memory bound and the expiry probe
// are hard conditions; the hit rate has a floor. LRU against FIFO is
// reported, not gated: windows this short evict almost only
// prepopulated keys nothing re-reads, so the policies tie to the last
// digit at Smoke and differ in the fourth decimal at Full.
func specMemoryPressure(s Scale, _ *audit.Log) Report {
	opt := MemoryPressureOptions{Cache: cluster.HotKeyOptions{PromoteMin: 4}}
	if s == Smoke {
		opt = MemoryPressureOptions{TargetRPS: 60000, Duration: 25 * sim.Millisecond}
	}
	res := MemoryPressure(opt)
	lru, fifo := res.Rows[0], res.Rows[1]
	rep := Report{Text: FormatMemoryPressure(res)}
	rep.metric("backends", res.Opt.Backends)
	rep.metric("budget_bytes_per_backend", res.Opt.BudgetBytes)
	rep.metric("pressure_factor", res.Opt.PressureFactor)
	rep.metric("lru_hit_rate", lru.HitRate)
	rep.metric("fifo_hit_rate", fifo.HitRate)
	rep.metric("lru_advantage", res.LRUAdvantage)
	rep.metric("lru_evictions", lru.Stores.Evictions)
	rep.metric("lru_expired_reclaims", lru.Stores.Expired)
	rep.metric("peak_bytes_per_backend", max(lru.Stores.PeakBytes, fifo.Stores.PeakBytes))
	rep.metric("mem_bounded", lru.MemBounded && fifo.MemBounded)
	rep.metric("expiry_probe_keys", lru.ProbeKeys)
	rep.metric("expired_served", lru.ExpiredServed+fifo.ExpiredServed)
	rep.metric("store_live_expired", lru.StoreLiveExpired+fifo.StoreLiveExpired)
	rep.metric("floor_lru_hit_rate", minMempHitRate)
	for _, row := range res.Rows {
		rep.require(row.MemBounded, "%s: peak %d bytes exceeded the %d-byte budget", row.Policy, row.Stores.PeakBytes, row.Stores.BudgetBytes)
		rep.require(row.ExpiredServed == 0 && row.StoreLiveExpired == 0, "%s: expiry probe saw %d expired values served, %d live in stores", row.Policy, row.ExpiredServed, row.StoreLiveExpired)
		rep.require(row.ProbeKeys > 0, "%s: expiry probe had no keys", row.Policy)
		rep.require(row.Stores.Evictions > 0, "%s: %.1fx pressure caused no evictions", row.Policy, res.Opt.PressureFactor)
		rep.require(row.HitRate > 0 && row.HitRate < 1, "%s: hit rate %.3f not in (0, 1): pressure not biting", row.Policy, row.HitRate)
		rep.require(row.Cache.Hits > 0, "%s: hot-key cache never engaged", row.Policy)
	}
	rep.require(lru.HitRate >= minMempHitRate, "LRU hit rate %.3f under memory pressure below floor %.3f", lru.HitRate, minMempHitRate)
	return rep
}

// FormatMemoryPressure renders the policy comparison and the gates.
func FormatMemoryPressure(r MemoryPressureResult) string {
	o := r.Opt
	out := fmt.Sprintf("MemoryPressure: %d backends x %d MiB budget, %.1fx offered dataset, skew %.2f, %.0f RPS\n",
		o.Backends, o.BudgetBytes>>20, o.PressureFactor, o.ZipfSkew, o.TargetRPS)
	out += fmt.Sprintf("%-6s %10s %7s | %9s %9s %9s | %7s %8s | %8s\n",
		"Policy", "RPS", "hit%", "evicted", "expired", "items", "cache%", "bounded", "expProbe")
	for _, row := range r.Rows {
		bounded := "PASS"
		if !row.MemBounded {
			bounded = "FAIL"
		}
		probe := "PASS"
		if row.ExpiredServed > 0 || row.StoreLiveExpired > 0 {
			probe = "FAIL"
		}
		out += fmt.Sprintf("%-6s %10.0f %6.1f%% | %9d %9d %9d | %6.1f%% %8s | %8s\n",
			row.Policy, row.Load.AchievedRPS, 100*row.HitRate,
			row.Stores.Evictions, row.Stores.Expired, row.Stores.Items,
			100*row.Cache.HitRate(), bounded, probe)
	}
	out += fmt.Sprintf("LRU over FIFO: %+.1f hit-rate points at %.1fx pressure\n", 100*r.LRUAdvantage, o.PressureFactor)
	out += fmt.Sprintf("peak footprint: %d of %d bytes per backend\n", r.Rows[0].Stores.PeakBytes, r.Rows[0].Stores.BudgetBytes)
	out += fmt.Sprintf("expiry probe: %d keys, %d served post-deadline, %d live-expired in stores\n",
		r.Rows[0].ProbeKeys, r.Rows[0].ExpiredServed+r.Rows[1].ExpiredServed,
		r.Rows[0].StoreLiveExpired+r.Rows[1].StoreLiveExpired)
	return out
}
