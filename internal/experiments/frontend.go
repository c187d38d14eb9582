package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// The frontend-tier matrix: N hosted frontends x frontendBackends native
// backends. The hosted tier is the bottleneck under study, so its nodes
// are deliberately small and the backends generously provisioned.
const (
	frontendBackends = 4
	frontendBackCore = 2 // cores per backend: the backends must not be the ceiling being measured
	frontendCores    = 1 // cores per hosted node, so the frontend saturates
	// frontendRPS is each frontend's offered Poisson arrival rate, just
	// past the per-op spine's single-frontend ceiling. A read arrival
	// expands to frontendMultiGet key-reads, so the offered key-op rate
	// is higher.
	frontendRPS      = 50000.0
	frontendMultiGet = 8
)

// frontendPoint runs one matrix point: a fresh cluster with nFront
// hosted frontends, one client Ebb and one load source per frontend,
// the multiget ETC workload at rps per frontend for 40ms. It returns
// the load result and the client submission-queue counters summed over
// every frontend.
func frontendPoint(nFront int, rps float64, batch cluster.BatchOptions) (load.ClusterLoadResult, cluster.BatchStats) {
	cl := cluster.NewCluster(frontendBackends, cluster.Options{
		CoresPerBackend: frontendBackCore,
		FrontendCores:   frontendCores,
	})
	for len(cl.Frontends) < nFront {
		cl.AddFrontend(frontendCores)
	}
	clis := make([]*cluster.Client, nFront)
	kvs := make([]load.KVClient, nFront)
	rtl := make([]appnet.Runtime, nFront)
	for i, front := range cl.Frontends[:nFront] {
		clis[i] = cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{Batch: batch})
		kvs[i] = clusterKV{cli: clis[i]}
		rtl[i] = front.Runtime
	}
	etc := load.DefaultETC()
	etc.KeySpace = 3000
	res := load.RunClusterLoadMulti(rtl, kvs, load.ClusterLoadConfig{
		TargetRPS: rps * float64(nFront),
		Warmup:    5 * sim.Millisecond,
		Duration:  40 * sim.Millisecond,
		Seed:      42,
		ETC:       etc,
		MultiGet:  frontendMultiGet,
	})
	var stats cluster.BatchStats
	for _, cli := range clis {
		stats.Accumulate(cli.BatchStats())
	}
	return res, stats
}

// minFrontendRatio is the floor for batched over per-op achieved
// throughput on one frontend (2.57x measured).
const minFrontendRatio = 1.3

// specFrontend profiles the hosted frontend tier: first the
// single-frontend ceiling (offered load swept past saturation on one
// batched frontend), then the NxM matrix at N = 1, 2, 3 with the
// batched submission queue ablated against the per-op spine (MaxBatch
// 1) at every N. The paper scales the native side (Figure 6); this is
// the same question asked of the hosted side, where per-op syscall
// pricing is exactly what the coalesced GETQ+Noop rounds amortize. At
// 40ms a point it is already smoke-sized, so both scales run it, and it
// is the one run in the tree that boots extra frontends through
// Cluster.AddFrontend. The gated numbers are the N=1 row's.
func specFrontend(Scale, *audit.Log) Report {
	batched := cluster.BatchOptions{MaxBatch: cluster.DefaultMaxBatch}
	perOp := cluster.BatchOptions{MaxBatch: 1}
	text := fmt.Sprintf("FrontendScaling: %d backends x %d cores, frontends x%d cores, %.0f arrivals/s per frontend, multiget %d, max batch %d\n",
		frontendBackends, frontendBackCore, frontendCores, frontendRPS, frontendMultiGet, batched.MaxBatch)

	// Phase 1: the single-frontend ceiling, batched arm.
	var netErrs uint64
	text += "  single-frontend ceiling (batched):\n"
	text += fmt.Sprintf("  %-12s %12s %10s\n", "offered/s", "achieved/s", "p99(us)")
	for _, mult := range []float64{0.5, 1.0, 1.5} {
		res, _ := frontendPoint(1, frontendRPS*mult, batched)
		text += fmt.Sprintf("  %-12.0f %12.0f %10.1f\n", frontendRPS*mult, res.AchievedRPS, res.P99.Micros())
		netErrs += res.NetErrs
	}

	// Phase 2: the NxM matrix, per-op vs batched at each N.
	type row struct {
		po, ba load.ClusterLoadResult
		ratio  float64
		stats  cluster.BatchStats
	}
	var rows []row
	text += "  matrix (key-ops/s):\n"
	text += fmt.Sprintf("  %-10s %12s %12s %7s %10s %10s %12s\n",
		"frontends", "per-op", "batched", "ratio", "rounds", "quiet", "p99 b(us)")
	for _, n := range []int{1, 2, 3} {
		r := row{}
		r.po, _ = frontendPoint(n, frontendRPS, perOp)
		r.ba, r.stats = frontendPoint(n, frontendRPS, batched)
		r.ratio = ratio(r.ba.AchievedRPS, r.po.AchievedRPS)
		rows = append(rows, r)
		netErrs += r.po.NetErrs + r.ba.NetErrs
		text += fmt.Sprintf("  %-10d %12.0f %12.0f %7.2f %10d %10d %12.1f\n",
			n, r.po.AchievedRPS, r.ba.AchievedRPS, r.ratio, r.stats.Rounds, r.stats.QuietMisses, r.ba.P99.Micros())
	}
	one, last := rows[0], rows[len(rows)-1]
	if one.stats.Rounds > 0 {
		text += "  batched round sizes (N=1): "
		for i, label := range cluster.OpsPerBatchLabels {
			text += fmt.Sprintf("%s:%d ", label, one.stats.OpsPerBatch[i])
		}
		text += "\n"
	}
	text += fmt.Sprintf("  batched/per-op at N=1: %.2fx; batched scale-out across the sweep: %.2fx; net errors: %d\n",
		one.ratio, ratio(last.ba.AchievedRPS, one.ba.AchievedRPS), netErrs)

	rep := Report{Text: text}
	rep.metric("frontends", 1)
	rep.metric("backends", frontendBackends)
	rep.metric("multiget_keys_per_read", frontendMultiGet)
	rep.metric("offered_arrivals_per_sec", frontendRPS)
	rep.metric("per_op_rps", one.po.AchievedRPS)
	rep.metric("batched_rps", one.ba.AchievedRPS)
	rep.metric("batched_over_per_op", one.ratio)
	rep.metric("batched_rounds", one.stats.Rounds)
	rep.metric("multi_op_rounds", one.stats.Batches)
	rep.metric("quiet_misses", one.stats.QuietMisses)
	rep.metric("net_errs", netErrs)
	rep.metric("floor_batched_over_per_op", minFrontendRatio)
	rep.require(one.stats.Batches > 0, "batched arm formed no multi-op rounds")
	rep.require(one.ratio >= minFrontendRatio, "batched/per-op ratio %.2fx below floor %.2fx", one.ratio, minFrontendRatio)
	rep.require(netErrs == 0, "%d failed client callbacks across the matrix", netErrs)
	return rep
}
