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

// lossyRun is one cluster measurement under loss.
type lossyRun struct {
	load load.ClusterLoadResult
	// tcp aggregates retransmission activity across every node's stack.
	tcp netstack.TcpStats
	// dropped counts frames the switch discarded during the run.
	dropped uint64
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

// runLossy boots a fresh cluster of single-core backends with the
// given stack configuration and measures the ETC workload over 2000 keys
// with frame loss starting at measurement start. The client runs
// without request timeouts: recovery is the transport's job, which is
// exactly what is under test.
func runLossy(backends int, rps float64, window sim.Time, rate float64, net netstack.Config) lossyRun {
	const seed = 42
	cl := cluster.NewCluster(backends, cluster.Options{
		CoresPerBackend: 1,
		Replicas:        2,
		FrontendCores:   4,
		Net:             net,
	})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{})

	var dropped uint64
	drop := lossDropper(seed, rate)
	etc := load.DefaultETC()
	etc.KeySpace = 2000
	res := load.RunClusterLoad(front.Runtime, clusterKV{cli: cli}, load.ClusterLoadConfig{
		TargetRPS: rps,
		Warmup:    10 * sim.Millisecond,
		Duration:  window,
		Seed:      seed,
		ETC:       etc,
		Events: []load.ChaosEvent{{
			At: 0, // loss begins exactly at measurement start
			Fn: func() {
				cl.Sys.Switch.DropFn = func(index uint64, f machine.Frame) bool {
					if drop(index, f) {
						dropped++
						return true
					}
					return false
				}
			},
		}},
	})
	return lossyRun{load: res, tcp: aggregateTcpStats(cl), dropped: dropped}
}

// minLossyRatio is the floor for adaptive over fixed completed
// throughput at 5% frame loss (5.5x measured).
const minLossyRatio = 1.5

// specLossy sweeps frame-loss rates over identical R=2 deployments,
// one pair of runs per rate: the self-tuning data path (adaptive RTO +
// fast retransmit, the default stack) versus the fixed-RTO baseline
// (one static 200ms RTO, no RTT estimation, no fast retransmit). On the
// simulated 10Gb/s datacenter link the RTT is microseconds, so a fixed
// 200ms RTO turns every lost segment into a five-orders-of-magnitude
// stall; the estimator retries at ~1ms and fast retransmit repairs
// windowed flows in one RTT. The gap widens with the loss rate because
// pooled connections serialize requests behind each stall. Loss applies
// to every frame crossing the switch once measurement starts;
// prepopulation and warmup run clean so the comparison isolates
// steady-state loss recovery. Full sweeps 1/5/10% loss on 4 backends at
// 20k RPS for 100ms; Smoke runs 5% alone on 2 backends at 10k RPS for
// 60ms. The 5% point is gated; client timeouts are off, so every
// condition is about the transport recovering on its own.
func specLossy(s Scale, _ *audit.Log) Report {
	backends := pick(s, 2, 4)
	rps := pick(s, 10000.0, 20000)
	window := pick(s, 60*sim.Millisecond, 100*sim.Millisecond)
	fixedNet := netstack.Config{FixedRTO: true, NoFastRetransmit: true}

	text := fmt.Sprintf("Lossy link: %d backends, R=%d, %.0f RPS offered, %.0fms window, loss at the switch\n",
		backends, 2, rps, float64(window)/1e6)
	text += fmt.Sprintf("  %-6s | %10s %9s %9s | %10s %9s %9s | %7s\n",
		"loss", "adapt RPS", "p99(us)", "rexmit", "fixed RPS", "p99(us)", "rexmit", "ratio")
	var drops string
	var ad, fixed lossyRun
	var gated float64
	for _, rate := range pick(s, []float64{0.05}, []float64{0.01, 0.05, 0.10}) {
		a := runLossy(backends, rps, window, rate, netstack.Config{})
		f := runLossy(backends, rps, window, rate, fixedNet)
		// When the fixed baseline completes nothing inside the window the
		// ratio reports 999 (effectively infinite).
		r := 999.0
		if f.load.AchievedRPS > 0 {
			r = a.load.AchievedRPS / f.load.AchievedRPS
		}
		text += fmt.Sprintf("  %5.1f%% | %10.0f %9.1f %9d | %10.0f %9.1f %9d | %6.1fx\n",
			100*rate,
			a.load.AchievedRPS, a.load.P99.Micros(), a.tcp.Retransmits,
			f.load.AchievedRPS, f.load.P99.Micros(), f.tcp.Retransmits, r)
		drops += fmt.Sprintf("  %4.1f%%: adaptive dropped %d frames, %d fast rexmit, %d persist probes; fixed dropped %d, %d net errors\n",
			100*rate, a.dropped, a.tcp.FastRetransmits, a.tcp.PersistProbes, f.dropped, f.load.NetErrs)
		if rate == 0.05 {
			ad, fixed, gated = a, f, r
		}
	}
	rep := Report{Text: text + drops}
	rep.metric("loss_rate", 0.05)
	rep.metric("adaptive_rps", ad.load.AchievedRPS)
	rep.metric("adaptive_p99_us", ad.load.P99.Micros())
	rep.metric("adaptive_retransmits", ad.tcp.Retransmits)
	rep.metric("adaptive_fast_retransmits", ad.tcp.FastRetransmits)
	rep.metric("adaptive_net_errs", ad.load.NetErrs)
	rep.metric("fixed_rps", fixed.load.AchievedRPS)
	rep.metric("fixed_p99_us", fixed.load.P99.Micros())
	rep.metric("dropped_frames", ad.dropped)
	rep.metric("throughput_ratio", gated)
	rep.metric("floor_throughput_ratio", minLossyRatio)
	rep.require(ad.dropped > 0, "loss injection vacuous: the switch dropped nothing")
	rep.require(ad.tcp.Retransmits > 0, "no retransmissions despite 5%% frame loss")
	rep.require(ad.tcp.FastRetransmits > 0, "fast-retransmit path never exercised at 5%% loss")
	rep.require(ad.load.NetErrs == 0, "%d failed client callbacks under loss with adaptive RTO", ad.load.NetErrs)
	// A deadlocked connection pool would flatline the tail of the run.
	rep.require(len(ad.load.Timeline) > 0 && ad.load.Timeline[len(ad.load.Timeline)-1].Completed > 0,
		"no completions in the final timeline bucket: flows stuck at window end")
	rep.require(ad.load.AchievedRPS >= 0.9*rps, "adaptive achieved %.0f RPS under 5%% loss, below 90%% of the %.0f offered", ad.load.AchievedRPS, rps)
	rep.require(gated >= minLossyRatio, "adaptive/fixed throughput ratio %.2fx below floor %.2fx", gated, minLossyRatio)
	return rep
}
