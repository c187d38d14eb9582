package experiments

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// HotKeyOptions tunes the hot-key caching experiment: the skewed-tail
// scaling sweep with the client Ebb's hot-key cache off vs on. The zero
// value selects the experiment's defaults.
type HotKeyOptions struct {
	// BackendCounts is the sweep (default {1, 2, 4, 8}).
	BackendCounts []int
	// PerBackendRPS is the offered load per backend; the aggregate for
	// a point is PerBackendRPS x backends (default 280000 - high enough
	// that the hot shard saturates in the uncached skewed tail).
	PerBackendRPS float64
	// CoresPerBackend sizes each backend (default 1).
	CoresPerBackend int
	// FrontendCores sizes the hosted frontend driving the client Ebb
	// (default 12: the frontend must not be the uncached bottleneck).
	FrontendCores int
	// Duration is the measured window per point (default 60ms).
	Duration sim.Time
	// KeySpace sizes the ETC population (default 6000).
	KeySpace int
	// ZipfSkew is the workload's key-popularity exponent (default 1.2:
	// the skewed tail the ROADMAP describes, where the top key alone
	// draws ~20% of accesses).
	ZipfSkew float64
	// RequestTimeout bounds one replica operation at the client. The
	// default (0) disables timeouts: this experiment drives healthy
	// backends into saturation, where a timeout would turn honest
	// queueing into bursts of failed operations instead of letting the
	// uncached curve cap at the hot shard's service rate.
	RequestTimeout sim.Time
	// Cache carries the hot-key cache knobs for the cache-on runs
	// (Enable is forced; zero fields select cluster defaults).
	Cache cluster.HotKeyOptions
	// RogueRPS, when positive, runs an independent, uncached writer
	// client alongside the cache-on runs, overwriting the hottest keys
	// at this rate - the staleness adversary the TTL and sampled
	// revalidation must bound (default 2000; negative disables).
	RogueRPS float64
	// RogueKeys is how many of the hottest keys the rogue writer
	// targets (default 32).
	RogueKeys int
	// Seed feeds the workload (default 42).
	Seed uint64
}

func (o *HotKeyOptions) applyDefaults() {
	if len(o.BackendCounts) == 0 {
		o.BackendCounts = []int{1, 2, 4, 8}
	}
	if o.PerBackendRPS <= 0 {
		o.PerBackendRPS = 280000
	}
	if o.CoresPerBackend <= 0 {
		o.CoresPerBackend = 1
	}
	if o.FrontendCores <= 0 {
		o.FrontendCores = 12
	}
	if o.Duration <= 0 {
		o.Duration = 60 * sim.Millisecond
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 6000
	}
	if o.ZipfSkew <= 0 {
		o.ZipfSkew = 1.2
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.RogueRPS == 0 {
		o.RogueRPS = 2000
	}
	if o.RogueKeys <= 0 {
		o.RogueKeys = 32
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// HotKeyRow is one backend count measured with the cache off and on.
type HotKeyRow struct {
	Backends int
	Offered  float64
	Off      load.ClusterLoadResult
	On       load.ClusterLoadResult
	// OffSpeedup / OnSpeedup are each mode's achieved RPS over its own
	// single-backend baseline - the scaling curves being compared.
	OffSpeedup float64
	OnSpeedup  float64
	// Cache is the cache-on run's hot-key counters.
	Cache cluster.HotKeyStats
}

// HotKeyResult is the full sweep plus the headline numbers.
type HotKeyResult struct {
	Opt  HotKeyOptions
	Rows []HotKeyRow
	// Improvement is OnSpeedup over OffSpeedup at the largest backend
	// count - how much of the skewed tail the cache recovers (the
	// acceptance target is >= 1.5 at 8 backends).
	Improvement float64
	// HotShare is the measured top-K key share of the offered stream
	// (from the load generator's per-key stats), the skew the cache is
	// absorbing.
	HotShare float64
	// Probe aggregates the cache-on runs' staleness probe: StaleServes
	// counts hits whose CAS lagged the owner, MaxStaleAge the oldest
	// such serve. TTLBounded reports MaxStaleAge <= TTL - the
	// bounded-staleness guarantee.
	Probe      cluster.HotKeyStats
	TTL        sim.Time
	TTLBounded bool
}

// HotKey sweeps backend counts under the skewed ETC workload through
// the frontend's client Ebb, once with the hot-key cache off and once
// with it on, and reports both scaling curves. The uncached curve caps
// where the hottest keys' owning shard saturates (the ROADMAP's
// Zipf-aware-placement blocker); the cached curve shows the client Ebb
// absorbing those reads before they reach the owner. A rogue uncached
// writer hammers the hottest keys during the cache-on runs so the
// staleness probe exercises - and verifies - the TTL bound.
func HotKey(opt HotKeyOptions) HotKeyResult {
	opt.applyDefaults()
	cacheOpt := opt.Cache
	cacheOpt.Enable = true
	cacheOpt.StalenessProbe = true
	cacheOpt = cacheOpt.WithDefaults()
	opt.Cache = cacheOpt

	out := HotKeyResult{Opt: opt, TTL: cacheOpt.TTL, TTLBounded: true}
	for _, n := range opt.BackendCounts {
		row := HotKeyRow{Backends: n, Offered: opt.PerBackendRPS * float64(n)}
		row.Off = hotKeyPoint(opt, n, cluster.HotKeyOptions{}, nil)
		var stats cluster.HotKeyStats
		row.On = hotKeyPoint(opt, n, cacheOpt, &stats)
		row.Cache = stats
		out.Probe.StaleServes += stats.StaleServes
		if stats.MaxStaleAge > out.Probe.MaxStaleAge {
			out.Probe.MaxStaleAge = stats.MaxStaleAge
		}
		if stats.MaxStaleAge > cacheOpt.TTL {
			out.TTLBounded = false
		}
		out.Rows = append(out.Rows, row)
	}
	offBase := out.Rows[0].Off.AchievedRPS
	onBase := out.Rows[0].On.AchievedRPS
	for i := range out.Rows {
		if offBase > 0 {
			out.Rows[i].OffSpeedup = out.Rows[i].Off.AchievedRPS / offBase
		}
		if onBase > 0 {
			out.Rows[i].OnSpeedup = out.Rows[i].On.AchievedRPS / onBase
		}
	}
	last := out.Rows[len(out.Rows)-1]
	if last.OffSpeedup > 0 {
		out.Improvement = last.OnSpeedup / last.OffSpeedup
	}
	out.HotShare = last.On.Keys.TopShare
	return out
}

// hotKeyPoint measures one backend count with the given cache
// configuration (zero = disabled). When probeStats is non-nil the run
// is a cache-on run: the client's hot-key counters are collected into
// it and the rogue writer runs alongside.
func hotKeyPoint(opt HotKeyOptions, backends int, cacheOpt cluster.HotKeyOptions, probeStats *cluster.HotKeyStats) load.ClusterLoadResult {
	cl := cluster.NewCluster(backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		Replicas:        1,
		FrontendCores:   opt.FrontendCores,
		HotKey:          cacheOpt,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		RequestTimeout: opt.RequestTimeout,
	})

	etc := load.DefaultETC()
	etc.KeySpace = opt.KeySpace
	etc.ZipfSkew = opt.ZipfSkew

	var events []load.ChaosEvent
	if probeStats != nil && opt.RogueRPS > 0 {
		events = append(events, rogueWriter(cl, etc, opt.Seed, opt.RogueRPS, opt.RogueKeys, opt.Duration, opt.RequestTimeout))
	}

	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: opt.PerBackendRPS * float64(backends),
		Warmup:    10 * sim.Millisecond,
		Duration:  opt.Duration,
		Seed:      opt.Seed,
		ETC:       etc,
		Events:    events,
	})
	if probeStats != nil {
		*probeStats = cli.HotKeyStats()
	}
	return res
}

// rogueWriter returns the chaos event that, at measurement start, sets
// an independent uncached client Ebb on the same frontend overwriting
// the hottest keys at rps for the measured window. Its writes move the
// owners' stamps behind the cached client's back, so every cached copy
// of a hot key goes stale until TTL expiry or sampled revalidation
// catches it - exactly the window the staleness probe measures.
func rogueWriter(cl *cluster.Cluster, etc load.ETCConfig, seed uint64, rps float64, hottest int, window, timeout sim.Time) load.ChaosEvent {
	front := cl.Sys.Frontend()
	rogue := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		RequestTimeout: timeout,
		HotKey:         cluster.HotKeyOptions{Disable: true},
	})
	work := load.NewWorkload(etc, seed)
	rng := sim.NewRng(seed ^ 0x5bd1e995)
	k := cl.Sys.K
	mgrs := front.Runtime.Mgrs()
	interval := sim.Time(1e9 / rps)
	end := sim.Time(0) // set when the event fires: measurement start + window
	var tick func()
	tick = func() {
		if end == 0 {
			end = k.Now() + window
		}
		if k.Now() >= end {
			return
		}
		keyIdx := rng.Intn(hottest)
		val := []byte(fmt.Sprintf("rogue-%d-%d", keyIdx, k.Now()))
		mgrs[rng.Intn(len(mgrs))].Spawn(func(c *event.Ctx) {
			rogue.Set(c, work.Keys[keyIdx], val, 0, nil)
		})
		k.Post(interval, tick)
	}
	return load.ChaosEvent{At: 0, Fn: tick}
}

// minHotKeyImprovement is the floor for how much of the skewed tail the
// cache recovers (1.8x measured at 8 backends).
const minHotKeyImprovement = 1.3

// specHotKey runs the sweep with promotion at 4 sketch hits (the
// windows are short, so promotion must not eat most of the run): Full
// at 1/2/4/8 backends, 60ms, 6000 keys; Smoke at 1 and 8 backends,
// 40ms, 4000 keys.
func specHotKey(s Scale, _ *audit.Log) Report {
	opt := HotKeyOptions{Cache: cluster.HotKeyOptions{PromoteMin: 4}}
	if s == Smoke {
		opt.BackendCounts, opt.Duration, opt.KeySpace = []int{1, 8}, 40*sim.Millisecond, 4000
	}
	res := HotKey(opt)
	tail := res.Rows[len(res.Rows)-1]
	rep := Report{Text: FormatHotKey(res)}
	rep.metric("hotkey_backends", tail.Backends)
	rep.metric("hotkey_off_speedup", tail.OffSpeedup)
	rep.metric("hotkey_on_speedup", tail.OnSpeedup)
	rep.metric("hotkey_improvement", res.Improvement)
	rep.metric("hotkey_cache_hit_rate", tail.Cache.HitRate())
	rep.metric("hot_key_share_top10", res.HotShare)
	rep.metric("max_stale_age_ms", float64(res.Probe.MaxStaleAge)/1e6)
	rep.metric("ttl_ms", float64(res.TTL)/1e6)
	rep.metric("ttl_bounded", res.TTLBounded)
	rep.metric("floor_hotkey_improvement", minHotKeyImprovement)
	rep.require(res.TTLBounded, "stale serve exceeded the TTL: max age %v > %v", res.Probe.MaxStaleAge, res.TTL)
	rep.require(res.Probe.StaleServes > 0, "staleness probe never fired despite the rogue writer")
	rep.require(res.Improvement >= minHotKeyImprovement, "hot-key improvement %.2fx at %d backends below floor %.2fx", res.Improvement, tail.Backends, minHotKeyImprovement)
	rep.require(tail.OnSpeedup > tail.OffSpeedup, "cache-on speedup %.2fx not above cache-off %.2fx", tail.OnSpeedup, tail.OffSpeedup)
	rep.require(tail.Cache.HitRate() >= 0.3, "cache hit rate %.2f below 0.3 under skew %.2f", tail.Cache.HitRate(), res.Opt.ZipfSkew)
	rep.require(res.HotShare >= 0.3, "measured hot-key share %.2f below 0.3: workload not skewed as configured", res.HotShare)
	return rep
}

// FormatHotKey renders the sweep as the cache-off vs cache-on scaling
// comparison plus the staleness verdict.
func FormatHotKey(r HotKeyResult) string {
	out := fmt.Sprintf("HotKey: skew %.2f over %d keys, %.0f RPS/backend, hot-key cache %d entries/core, TTL %.1fms\n",
		r.Opt.ZipfSkew, r.Opt.KeySpace, r.Opt.PerBackendRPS,
		r.Opt.Cache.Capacity, float64(r.TTL)/1e6)
	out += fmt.Sprintf("%-9s %10s | %10s %8s | %10s %8s %7s | %8s\n",
		"Backends", "Offered", "off RPS", "speedup", "on RPS", "speedup", "hit%", "improve")
	for _, row := range r.Rows {
		improve := 0.0
		if row.OffSpeedup > 0 {
			improve = row.OnSpeedup / row.OffSpeedup
		}
		out += fmt.Sprintf("%-9d %10.0f | %10.0f %7.2fx | %10.0f %7.2fx %6.1f%% | %7.2fx\n",
			row.Backends, row.Offered,
			row.Off.AchievedRPS, row.OffSpeedup,
			row.On.AchievedRPS, row.OnSpeedup, 100*row.Cache.HitRate(), improve)
	}
	out += fmt.Sprintf("hot-key share (top %d keys): %.1f%% of offered ops\n",
		len(r.Rows[len(r.Rows)-1].On.Keys.TopK), 100*r.HotShare)
	out += fmt.Sprintf("skewed-tail improvement at %d backends: %.2fx\n",
		r.Rows[len(r.Rows)-1].Backends, r.Improvement)
	verdict := "PASS"
	if !r.TTLBounded {
		verdict = "FAIL"
	}
	out += fmt.Sprintf("staleness probe: %d stale serves, max stale age %.3fms <= TTL %.3fms: %s\n",
		r.Probe.StaleServes, float64(r.Probe.MaxStaleAge)/1e6, float64(r.TTL)/1e6, verdict)
	return out
}
