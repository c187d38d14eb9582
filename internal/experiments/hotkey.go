package experiments

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// The skewed-ETC deployment both hot-key Specs measure: single-core
// backends offered hotRPSPerBackend each under a Zipf 1.2 key
// popularity - the skewed tail where the top key alone draws ~20% of
// accesses - from a 12-core hosted frontend, so the frontend is not the
// uncached bottleneck. The per-backend load is high enough that the hot
// shard saturates when nothing absorbs the skew.
const (
	hotRPSPerBackend = 280000.0
	hotZipfSkew      = 1.2
	hotFrontCores    = 12
	// A rogue uncached writer overwrites the hottest rogueKeys keys at
	// rogueRPS during every fixed run.
	rogueRPS  = 2000.0
	rogueKeys = 32
)

// hotRun is one run of the skewed deployment.
type hotRun struct {
	load  load.ClusterLoadResult
	cache cluster.HotKeyStats // the client's hot-key counters
	cl    *cluster.Cluster
}

// skewedPoint boots the skewed deployment at the given size and
// replication with the given hot-key cache and write-spreading knobs
// (zero = off), and measures the ETC workload through the frontend's
// client Ebb for window over keys keys. The client has no request
// timeout: these runs drive healthy backends into saturation, where a
// timeout would turn honest queueing into bursts of failed operations
// instead of letting the uncached curve cap at the hot shard's service
// rate. A run with the cache on also runs the rogue writer.
func skewedPoint(backends, replicas int, window sim.Time, keys int, cache cluster.HotKeyOptions, spread cluster.HotWriteOptions) hotRun {
	cl := cluster.NewCluster(backends, cluster.Options{
		CoresPerBackend: 1,
		Replicas:        replicas,
		FrontendCores:   hotFrontCores,
		HotKey:          cache,
		HotWrite:        spread,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{})

	etc := load.DefaultETC()
	etc.KeySpace = keys
	etc.ZipfSkew = hotZipfSkew

	var events []load.ChaosEvent
	if cache.Enable {
		events = append(events, rogueWriter(cl, etc, window))
	}
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: hotRPSPerBackend * float64(backends),
		Warmup:    10 * sim.Millisecond,
		Duration:  window,
		Seed:      42,
		ETC:       etc,
		Events:    events,
	})
	return hotRun{load: res, cache: cli.HotKeyStats(), cl: cl}
}

// rogueWriter returns the chaos event that, at measurement start, sets
// an independent uncached client Ebb on the same frontend overwriting
// the hottest keys at rogueRPS for the measured window. Its writes are
// coordinator-stamped like any other, so they move every live owner's
// stamp behind the cached client's back, and every cached copy of a hot
// key goes stale until TTL expiry or sampled revalidation catches it -
// exactly the window the staleness probe measures.
func rogueWriter(cl *cluster.Cluster, etc load.ETCConfig, window sim.Time) load.ChaosEvent {
	const seed = 42
	front := cl.Sys.Frontend()
	rogue := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		HotKey: cluster.HotKeyOptions{Disable: true},
	})
	work := load.NewWorkload(etc, seed)
	rng := sim.NewRng(seed ^ 0x5bd1e995)
	k := cl.Sys.K
	mgrs := front.Runtime.Mgrs()
	interval := sim.Time(1e9 / rogueRPS)
	end := sim.Time(0) // set when the event fires: measurement start + window
	var tick func()
	tick = func() {
		if end == 0 {
			end = k.Now() + window
		}
		if k.Now() >= end {
			return
		}
		keyIdx := rng.Intn(rogueKeys)
		val := []byte(fmt.Sprintf("rogue-%d-%d", keyIdx, k.Now()))
		mgrs[rng.Intn(len(mgrs))].Spawn(func(c *event.Ctx) {
			rogue.Set(c, work.Keys[keyIdx], val, 0, nil)
		})
		k.Post(interval, tick)
	}
	return load.ChaosEvent{At: 0, Fn: tick}
}

// fixedCache is the cache-on configuration both Specs run: promotion at
// 4 sketch hits (the windows are short, so promotion must not eat most
// of the run) and the staleness probe on.
func fixedCache() cluster.HotKeyOptions {
	return cluster.HotKeyOptions{Enable: true, StalenessProbe: true, PromoteMin: 4}
}

// minHotKeyImprovement is the floor for how much of the skewed tail the
// cache recovers (1.8x measured at 8 backends).
const minHotKeyImprovement = 1.3

// specHotKey sweeps backend counts at R=1, once with the client Ebb's
// hot-key cache off and once with it on, and compares the two scaling
// curves. The uncached curve caps where the hottest keys' owning shard
// saturates (the Zipf-aware-placement blocker); the cached curve shows
// the client Ebb absorbing those reads before they reach the owner.
// The rogue writer hammers the hottest keys during the cache-on runs so
// the staleness probe exercises - and verifies - the TTL bound. Full
// sweeps 1/2/4/8 backends at 60ms over 6000 keys; Smoke 1 and 8 at 40ms
// over 4000.
func specHotKey(s Scale, _ *audit.Log) Report {
	counts := pick(s, []int{1, 8}, []int{1, 2, 4, 8})
	window := pick(s, 40*sim.Millisecond, 60*sim.Millisecond)
	keys := pick(s, 4000, 6000)
	cache := fixedCache()

	type row struct {
		off, on             hotRun
		offSpeedup, onSpeed float64
	}
	rows := make([]row, len(counts))
	var staleServes uint64
	var maxStale sim.Time
	for i, n := range counts {
		rows[i].off = skewedPoint(n, 1, window, keys, cluster.HotKeyOptions{}, cluster.HotWriteOptions{})
		rows[i].on = skewedPoint(n, 1, window, keys, cache, cluster.HotWriteOptions{})
		staleServes += rows[i].on.cache.StaleServes
		maxStale = max(maxStale, rows[i].on.cache.MaxStaleAge)
	}
	// Each mode's achieved RPS over its own single-backend baseline: the
	// scaling curves being compared.
	for i := range rows {
		rows[i].offSpeedup = ratio(rows[i].off.load.AchievedRPS, rows[0].off.load.AchievedRPS)
		rows[i].onSpeed = ratio(rows[i].on.load.AchievedRPS, rows[0].on.load.AchievedRPS)
	}
	tail := rows[len(rows)-1]
	improvement := ratio(tail.onSpeed, tail.offSpeedup)
	hotShare := tail.on.load.Keys.TopShare
	ttlBounded := maxStale <= cluster.DefaultHotKeyTTL
	tailBackends := counts[len(counts)-1]

	text := fmt.Sprintf("HotKey: skew %.2f over %d keys, %.0f RPS/backend, hot-key cache %d entries/core, TTL %.1fms\n",
		hotZipfSkew, keys, hotRPSPerBackend, cluster.DefaultHotKeyCapacity, float64(cluster.DefaultHotKeyTTL)/1e6)
	text += fmt.Sprintf("%-9s %10s | %10s %8s | %10s %8s %7s | %8s\n",
		"Backends", "Offered", "off RPS", "speedup", "on RPS", "speedup", "hit%", "improve")
	for i, r := range rows {
		text += fmt.Sprintf("%-9d %10.0f | %10.0f %7.2fx | %10.0f %7.2fx %6.1f%% | %7.2fx\n",
			counts[i], hotRPSPerBackend*float64(counts[i]),
			r.off.load.AchievedRPS, r.offSpeedup,
			r.on.load.AchievedRPS, r.onSpeed, 100*r.on.cache.HitRate(), ratio(r.onSpeed, r.offSpeedup))
	}
	text += fmt.Sprintf("hot-key share (top %d keys): %.1f%% of offered ops\n", len(tail.on.load.Keys.TopK), 100*hotShare)
	text += fmt.Sprintf("skewed-tail improvement at %d backends: %.2fx\n", tailBackends, improvement)
	text += fmt.Sprintf("staleness probe: %d stale serves, max stale age %.3fms <= TTL %.3fms: %s\n",
		staleServes, float64(maxStale)/1e6, float64(cluster.DefaultHotKeyTTL)/1e6, verdict(ttlBounded))

	rep := Report{Text: text}
	rep.metric("hotkey_backends", tailBackends)
	rep.metric("hotkey_off_speedup", tail.offSpeedup)
	rep.metric("hotkey_on_speedup", tail.onSpeed)
	rep.metric("hotkey_improvement", improvement)
	rep.metric("hotkey_cache_hit_rate", tail.on.cache.HitRate())
	rep.metric("hot_key_share_top10", hotShare)
	rep.metric("max_stale_age_ms", float64(maxStale)/1e6)
	rep.metric("ttl_ms", float64(cluster.DefaultHotKeyTTL)/1e6)
	rep.metric("ttl_bounded", ttlBounded)
	rep.metric("floor_hotkey_improvement", minHotKeyImprovement)
	rep.require(ttlBounded, "stale serve exceeded the TTL: max age %v > %v", maxStale, cluster.DefaultHotKeyTTL)
	rep.require(staleServes > 0, "staleness probe never fired despite the rogue writer")
	rep.require(improvement >= minHotKeyImprovement, "hot-key improvement %.2fx at %d backends below floor %.2fx", improvement, tailBackends, minHotKeyImprovement)
	rep.require(tail.onSpeed > tail.offSpeedup, "cache-on speedup %.2fx not above cache-off %.2fx", tail.onSpeed, tail.offSpeedup)
	rep.require(tail.on.cache.HitRate() >= 0.3, "cache hit rate %.2f below 0.3 under skew %.2f", tail.on.cache.HitRate(), hotZipfSkew)
	rep.require(hotShare >= 0.3, "measured hot-key share %.2f below 0.3: workload not skewed as configured", hotShare)
	return rep
}

// verdict renders a staleness bound's outcome.
func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// minR3Improvement is the floor for the fixed configuration over the
// unfixed baseline at 8 backends, R=3 (1.85x measured).
const minR3Improvement = 1.5

// hottestShare is the hottest backend's fraction of all backend-served
// requests in a run: how concentrated the skew leaves the cluster.
func hottestShare(cl *cluster.Cluster) float64 {
	var total, most uint64
	for _, b := range cl.Backends {
		total += b.Srv.Requests
		most = max(most, b.Srv.Requests)
	}
	return ratio(float64(most), float64(total))
}

// specReplicatedHotKey measures the hot-key fix end to end at 8
// backends, R=3 - the configuration whose CAS coherence hole this
// experiment reproduces closed: one cache-off, spread-off baseline run
// and one run with replica-coherent caching plus salted hot-write
// spreading, under the same skewed workload. The rogue writer hammers
// the hottest keys during the fixed run, so the staleness probe - which
// peeks every live replica of every salted shard, meaningful now that
// stamps are replica-wide - verifies the TTL bound under adversarial
// writes at R=3. Full runs 60ms over 6000 keys, Smoke 40ms over 4000.
func specReplicatedHotKey(s Scale, _ *audit.Log) Report {
	const backends, replicas = 8, 3
	window := pick(s, 40*sim.Millisecond, 60*sim.Millisecond)
	keys := pick(s, 4000, 6000)
	cache := fixedCache()
	off := skewedPoint(backends, replicas, window, keys, cluster.HotKeyOptions{}, cluster.HotWriteOptions{})
	on := skewedPoint(backends, replicas, window, keys, cache, cluster.HotWriteOptions{Enable: true})
	improvement := ratio(on.load.AchievedRPS, off.load.AchievedRPS)
	offShare, onShare := hottestShare(off.cl), hottestShare(on.cl)
	hw := on.cl.HotWriteStats()
	ttlBounded := on.cache.MaxStaleAge <= cluster.DefaultHotKeyTTL

	text := fmt.Sprintf("ReplicatedHotKey: %d backends, R=%d, skew %.2f over %d keys, %.0f RPS/backend\n",
		backends, replicas, hotZipfSkew, keys, hotRPSPerBackend)
	text += fmt.Sprintf("%-22s %12s %10s %10s %12s\n", "", "achieved RPS", "p99 (us)", "netErrs", "hottest-node")
	text += fmt.Sprintf("%-22s %12.0f %10.1f %10d %11.1f%%\n",
		"baseline (no fix)", off.load.AchievedRPS, off.load.P99.Micros(), off.load.NetErrs, 100*offShare)
	text += fmt.Sprintf("%-22s %12.0f %10.1f %10d %11.1f%%\n",
		"cache + write spread", on.load.AchievedRPS, on.load.P99.Micros(), on.load.NetErrs, 100*onShare)
	text += fmt.Sprintf("improvement at %d backends, R=%d: %.2fx (hit rate %.1f%%, hot share %.1f%%)\n",
		backends, replicas, improvement, 100*on.cache.HitRate(), 100*on.load.Keys.TopShare)
	text += fmt.Sprintf("write spreading: %d keys promoted, %d salted writes, %d targeted reads (%d fan-in fallbacks)\n",
		hw.Promoted, hw.SaltedWrites, hw.SaltedReads, hw.SaltedFanIns)
	text += fmt.Sprintf("staleness probe (all owners, all shards): %d stale serves, max stale age %.3fms <= TTL %.3fms: %s\n",
		on.cache.StaleServes, float64(on.cache.MaxStaleAge)/1e6, float64(cluster.DefaultHotKeyTTL)/1e6, verdict(ttlBounded))

	rep := Report{Text: text}
	rep.metric("backends", backends)
	rep.metric("replicas", replicas)
	rep.metric("baseline_rps", off.load.AchievedRPS)
	rep.metric("fixed_rps", on.load.AchievedRPS)
	rep.metric("improvement", improvement)
	rep.metric("cache_hit_rate", on.cache.HitRate())
	rep.metric("spread_promoted_keys", hw.Promoted)
	rep.metric("salted_writes", hw.SaltedWrites)
	rep.metric("salted_targeted_reads", hw.SaltedReads)
	rep.metric("salted_fanin_fallbacks", hw.SaltedFanIns)
	rep.metric("baseline_hottest_node_share", offShare)
	rep.metric("fixed_hottest_node_share", onShare)
	rep.metric("max_stale_age_ms", float64(on.cache.MaxStaleAge)/1e6)
	rep.metric("ttl_ms", float64(cluster.DefaultHotKeyTTL)/1e6)
	rep.metric("ttl_bounded", ttlBounded)
	rep.metric("floor_improvement", minR3Improvement)
	rep.require(ttlBounded, "stale serve exceeded the TTL on some replica: max age %v > %v", on.cache.MaxStaleAge, cluster.DefaultHotKeyTTL)
	rep.require(on.cache.StaleServes > 0, "staleness probe never fired despite the rogue writer")
	rep.require(improvement >= minR3Improvement, "R=%d improvement %.2fx below floor %.2fx", replicas, improvement, minR3Improvement)
	rep.require(on.cache.HitRate() >= 0.3, "cache hit rate %.2f below 0.3 under skew %.2f", on.cache.HitRate(), hotZipfSkew)
	rep.require(hw.Promoted > 0 && hw.SaltedWrites > 0, "write spreading never engaged: %d promoted, %d salted writes", hw.Promoted, hw.SaltedWrites)
	rep.require(hw.SaltedReads > 0, "no reads went through the spread-key path")
	// Targeted reads exist to keep spread reads at ~1x cost; if more than
	// a quarter fall back to the K-way fan-in the optimization regressed.
	rep.require(hw.SaltedFanIns*4 <= hw.SaltedReads, "fan-in fallbacks %d out of %d spread reads: targeted path not holding", hw.SaltedFanIns, hw.SaltedReads)
	rep.require(onShare < offShare, "hottest-node share %.3f not below baseline %.3f: spreading had no balancing effect", onShare, offShare)
	return rep
}
