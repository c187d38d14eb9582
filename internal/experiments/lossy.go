package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/gpos"
	"ebbrt/internal/load"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// LossyOptions tunes the lossy-link experiment: the same sharded
// workload as the scaling runs, but with uniform random frame loss
// injected at the switch, comparing the self-tuning TCP data path
// (adaptive RTO + fast retransmit) against the fixed-RTO baseline.
type LossyOptions struct {
	// Backends is the native backend count (default 4).
	Backends int
	// CoresPerBackend sizes each backend (default 1).
	CoresPerBackend int
	// Replicas is the replication factor R (default 2).
	Replicas int
	// FrontendCores sizes the hosted frontend (default 4).
	FrontendCores int
	// TargetRPS is the offered load (default 20000).
	TargetRPS float64
	// Duration is the measured window (default 100ms).
	Duration sim.Time
	// LossRates are the frame-loss probabilities swept (default
	// 1%, 5%, 10%). Loss applies to every frame crossing the switch
	// once measurement starts; prepopulation and warmup run clean so
	// the comparison isolates steady-state loss recovery.
	LossRates []float64
	// KeySpace sizes the ETC key population (default 2000).
	KeySpace int
	// Seed feeds the workload, arrivals, and the loss process.
	Seed uint64
}

func (o *LossyOptions) applyDefaults() {
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
		o.TargetRPS = 20000
	}
	if o.Duration <= 0 {
		o.Duration = 100 * sim.Millisecond
	}
	if len(o.LossRates) == 0 {
		o.LossRates = []float64{0.01, 0.05, 0.10}
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 2000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// LossyRun is one cluster measurement under loss.
type LossyRun struct {
	Load load.ClusterLoadResult
	// Tcp aggregates retransmission activity across every node's stack.
	Tcp netstack.TcpStats
	// DroppedFrames counts frames the switch discarded during the run.
	DroppedFrames uint64
}

// LossyPoint compares the two retransmission policies at one loss rate.
type LossyPoint struct {
	LossRate float64
	Adaptive LossyRun
	Fixed    LossyRun
	// ThroughputRatio is adaptive / fixed completed throughput. When
	// the fixed baseline completes nothing inside the window the ratio
	// reports 999 (effectively infinite) rather than dividing by zero.
	ThroughputRatio float64
}

// LossyResult is the full sweep.
type LossyResult struct {
	Opt    LossyOptions
	Points []LossyPoint
}

// lossDropper returns a deterministic per-frame drop decision: a
// splitmix64 hash of the frame index against the loss probability, so
// a given (seed, rate) pair always drops the same frame sequence.
func lossDropper(seed uint64, rate float64) func(index uint64, f machine.Frame) bool {
	threshold := uint64(rate * float64(1<<63) * 2)
	return func(index uint64, f machine.Frame) bool {
		x := index + seed + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x < threshold
	}
}

// aggregateTcpStats sums retransmission counters across every node in
// the deployment (native backends and the GPOS frontend alike).
func aggregateTcpStats(cl *cluster.Cluster) netstack.TcpStats {
	var sum netstack.TcpStats
	for _, n := range cl.Sys.Nodes {
		var itf *netstack.Interface
		switch rt := n.Runtime.(type) {
		case *appnet.Native:
			itf = rt.Itf
		case *gpos.Runtime:
			itf = rt.Itf
		}
		if itf == nil {
			continue
		}
		s := itf.TcpStats()
		sum.Retransmits += s.Retransmits
		sum.FastRetransmits += s.FastRetransmits
		sum.PersistProbes += s.PersistProbes
	}
	return sum
}

// runLossy boots a fresh cluster with the given stack configuration and
// measures the ETC workload with frame loss starting at measurement
// start. The client runs without request timeouts: recovery is the
// transport's job, which is exactly what is under test.
func runLossy(opt LossyOptions, rate float64, net netstack.Config) LossyRun {
	cl := cluster.NewCluster(opt.Backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		Replicas:        opt.Replicas,
		FrontendCores:   opt.FrontendCores,
		Net:             net,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		RequestTimeout: 0, // transport-only recovery
	})

	var droppedFrames uint64
	drop := lossDropper(opt.Seed, rate)
	etc := load.DefaultETC()
	etc.KeySpace = opt.KeySpace
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: opt.TargetRPS,
		Warmup:    10 * sim.Millisecond,
		Duration:  opt.Duration,
		Seed:      opt.Seed,
		ETC:       etc,
		Events: []load.ChaosEvent{{
			At: 0, // loss begins exactly at measurement start
			Fn: func() {
				cl.Sys.Switch.DropFn = func(index uint64, f machine.Frame) bool {
					if drop(index, f) {
						droppedFrames++
						return true
					}
					return false
				}
			},
		}},
	})
	return LossyRun{Load: res, Tcp: aggregateTcpStats(cl), DroppedFrames: droppedFrames}
}

// AdaptiveNetConfig is the self-tuning data path (the default stack).
func AdaptiveNetConfig() netstack.Config { return netstack.DefaultConfig() }

// FixedNetConfig is the pre-self-tuning baseline: one static 200ms RTO,
// no RTT estimation, no fast retransmit.
func FixedNetConfig() netstack.Config {
	cfg := netstack.DefaultConfig()
	cfg.AdaptiveRTO = false
	cfg.FastRetransmit = false
	return cfg
}

// Lossy sweeps frame-loss rates over identical deployments, one pair of
// runs per rate: the adaptive data path versus the fixed-RTO baseline.
// On the simulated 10Gb/s datacenter link the RTT is microseconds, so a
// fixed 200ms RTO turns every lost segment into a five-orders-of-
// magnitude stall; the estimator retries at ~1ms and fast retransmit
// repairs windowed flows in one RTT. The gap widens with the loss rate
// because pooled connections serialize requests behind each stall.
func Lossy(opt LossyOptions) LossyResult {
	opt.applyDefaults()
	out := LossyResult{Opt: opt}
	for _, rate := range opt.LossRates {
		p := LossyPoint{
			LossRate: rate,
			Adaptive: runLossy(opt, rate, AdaptiveNetConfig()),
			Fixed:    runLossy(opt, rate, FixedNetConfig()),
		}
		if f := p.Fixed.Load.AchievedRPS; f > 0 {
			p.ThroughputRatio = p.Adaptive.Load.AchievedRPS / f
		} else {
			p.ThroughputRatio = 999
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// minLossyRatio is the floor for adaptive over fixed completed
// throughput at 5% frame loss (5.5x measured).
const minLossyRatio = 1.5

// specLossy runs the sweep - Full at 1/5/10% loss on 4 backends, 20k
// RPS, 100ms; Smoke at 5% alone on 2 backends, 10k RPS, 60ms - and
// gates the 5% point. Client timeouts are off, so every condition here
// is about the transport recovering on its own.
func specLossy(s Scale, _ *audit.Log) Report {
	var opt LossyOptions
	if s == Smoke {
		opt = LossyOptions{Backends: 2, Replicas: 2, TargetRPS: 10000, Duration: 60 * sim.Millisecond, LossRates: []float64{0.05}}
	}
	res := Lossy(opt)
	rep := Report{Text: FormatLossy(res)}
	var p LossyPoint
	for _, pt := range res.Points {
		if pt.LossRate == 0.05 {
			p = pt
		}
	}
	ad := p.Adaptive
	rep.metric("loss_rate", p.LossRate)
	rep.metric("adaptive_rps", ad.Load.AchievedRPS)
	rep.metric("adaptive_p99_us", ad.Load.P99.Micros())
	rep.metric("adaptive_retransmits", ad.Tcp.Retransmits)
	rep.metric("adaptive_fast_retransmits", ad.Tcp.FastRetransmits)
	rep.metric("adaptive_net_errs", ad.Load.NetErrs)
	rep.metric("fixed_rps", p.Fixed.Load.AchievedRPS)
	rep.metric("fixed_p99_us", p.Fixed.Load.P99.Micros())
	rep.metric("dropped_frames", ad.DroppedFrames)
	rep.metric("throughput_ratio", p.ThroughputRatio)
	rep.metric("floor_throughput_ratio", minLossyRatio)
	rep.require(ad.DroppedFrames > 0, "loss injection vacuous: the switch dropped nothing")
	rep.require(ad.Tcp.Retransmits > 0, "no retransmissions despite 5%% frame loss")
	rep.require(ad.Tcp.FastRetransmits > 0, "fast-retransmit path never exercised at 5%% loss")
	rep.require(ad.Load.NetErrs == 0, "%d failed client callbacks under loss with adaptive RTO", ad.Load.NetErrs)
	// A deadlocked connection pool would flatline the tail of the run.
	rep.require(len(ad.Load.Timeline) > 0 && ad.Load.Timeline[len(ad.Load.Timeline)-1].Completed > 0,
		"no completions in the final timeline bucket: flows stuck at window end")
	rep.require(ad.Load.AchievedRPS >= 0.9*res.Opt.TargetRPS, "adaptive achieved %.0f RPS under 5%% loss, below 90%% of the %.0f offered", ad.Load.AchievedRPS, res.Opt.TargetRPS)
	rep.require(p.ThroughputRatio >= minLossyRatio, "adaptive/fixed throughput ratio %.2fx below floor %.2fx", p.ThroughputRatio, minLossyRatio)
	return rep
}

// FormatLossy renders the sweep as a comparison table.
func FormatLossy(r LossyResult) string {
	out := fmt.Sprintf("Lossy link: %d backends, R=%d, %.0f RPS offered, %.0fms window, loss at the switch\n",
		r.Opt.Backends, r.Opt.Replicas, r.Opt.TargetRPS, float64(r.Opt.Duration)/1e6)
	out += fmt.Sprintf("  %-6s | %10s %9s %9s | %10s %9s %9s | %7s\n",
		"loss", "adapt RPS", "p99(us)", "rexmit", "fixed RPS", "p99(us)", "rexmit", "ratio")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %5.1f%% | %10.0f %9.1f %9d | %10.0f %9.1f %9d | %6.1fx\n",
			100*p.LossRate,
			p.Adaptive.Load.AchievedRPS, p.Adaptive.Load.P99.Micros(), p.Adaptive.Tcp.Retransmits,
			p.Fixed.Load.AchievedRPS, p.Fixed.Load.P99.Micros(), p.Fixed.Tcp.Retransmits,
			p.ThroughputRatio)
	}
	for _, p := range r.Points {
		out += fmt.Sprintf("  %4.1f%%: adaptive dropped %d frames, %d fast rexmit, %d persist probes; fixed dropped %d, %d net errors\n",
			100*p.LossRate,
			p.Adaptive.DroppedFrames, p.Adaptive.Tcp.FastRetransmits, p.Adaptive.Tcp.PersistProbes,
			p.Fixed.DroppedFrames, p.Fixed.Load.NetErrs)
	}
	return out
}
