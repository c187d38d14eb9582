package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// FrontendScalingOptions drives the frontend-tier scale-out matrix: N
// hosted frontends x M native backends, with the batched submission
// queue ablated against the per-op spine. The hosted tier is the
// bottleneck under study, so its nodes are deliberately small and the
// backends generously provisioned.
type FrontendScalingOptions struct {
	// FrontendCounts are the N values swept (default {1, 2, 3}).
	FrontendCounts []int
	// Backends is M, the native backend count (default 4).
	Backends int
	// CoresPerBackend sizes each backend (default 2: the backends must
	// not be the ceiling being measured).
	CoresPerBackend int
	// FrontendCores sizes each hosted node (default 1, so the frontend
	// saturates at smoke scale).
	FrontendCores int
	// PerFrontendRPS is each frontend's offered Poisson arrival rate
	// (default 50000, just past the per-op spine's single-frontend
	// ceiling at the other defaults). A read arrival expands to
	// MultiGet key-reads, so the offered key-op rate is higher.
	PerFrontendRPS float64
	// MultiGet is the keys per read arrival (default 8).
	MultiGet int
	// MaxBatch caps one backend's reads per pipelined round in the
	// batched arm (default cluster.DefaultMaxBatch). The per-op arm
	// always runs MaxBatch 1.
	MaxBatch int
	// Duration is each point's measured window (default 40ms).
	Duration sim.Time
	// KeySpace sizes the ETC key population (default 3000).
	KeySpace int
	// Seed feeds the workload and arrival processes.
	Seed uint64
}

func (o *FrontendScalingOptions) applyDefaults() {
	if len(o.FrontendCounts) == 0 {
		o.FrontendCounts = []int{1, 2, 3}
	}
	if o.Backends <= 0 {
		o.Backends = 4
	}
	if o.CoresPerBackend <= 0 {
		o.CoresPerBackend = 2
	}
	if o.FrontendCores <= 0 {
		o.FrontendCores = 1
	}
	if o.PerFrontendRPS <= 0 {
		o.PerFrontendRPS = 50000
	}
	if o.MultiGet <= 0 {
		o.MultiGet = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = cluster.DefaultMaxBatch
	}
	if o.Duration <= 0 {
		o.Duration = 40 * sim.Millisecond
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 3000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// FrontendCeilingPoint is one offered-vs-achieved sample of the
// single-frontend profile.
type FrontendCeilingPoint struct {
	OfferedRPS  float64 // arrival rate offered
	AchievedRPS float64 // key-operations completed per second
	P99         sim.Time
}

// FrontendScalingRow is one N-frontends matrix point: the same offered
// load driven through the per-op spine (MaxBatch 1) and the batched
// submission queue.
type FrontendScalingRow struct {
	Frontends int
	// OfferedRPS is the tier-wide arrival rate (PerFrontendRPS x N).
	OfferedRPS float64
	PerOp      load.ClusterLoadResult
	Batched    load.ClusterLoadResult
	// Ratio is batched/per-op achieved key-op throughput.
	Ratio float64
	// Stats is the batched arm's submission-queue counters summed over
	// every frontend's client.
	Stats cluster.BatchStats
}

// FrontendScalingResult is the full matrix run.
type FrontendScalingResult struct {
	Opt     FrontendScalingOptions
	Ceiling []FrontendCeilingPoint
	Rows    []FrontendScalingRow
	// Ratio is the batched/per-op throughput ratio at N=1 - the
	// ablation specFrontend gates.
	Ratio float64
	// ScaleOut is batched throughput at max N over batched throughput
	// at N=1.
	ScaleOut float64
	// NetErrs counts failed callbacks across every arm of every row.
	NetErrs uint64
}

// frontendPoint runs one matrix point: a fresh cluster with nFront
// hosted frontends, one client Ebb and one load source per frontend,
// the multiget ETC workload at the tier-wide rate.
func frontendPoint(opt FrontendScalingOptions, nFront int, batch cluster.BatchOptions) (load.ClusterLoadResult, cluster.BatchStats) {
	cl := cluster.NewCluster(opt.Backends, cluster.Options{
		CoresPerBackend: opt.CoresPerBackend,
		FrontendCores:   opt.FrontendCores,
	})
	for len(cl.Frontends) < nFront {
		cl.AddFrontend(opt.FrontendCores)
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
	etc.KeySpace = opt.KeySpace
	res := load.RunClusterLoadMulti(rtl, kvs, load.ClusterLoadConfig{
		TargetRPS: opt.PerFrontendRPS * float64(nFront),
		Warmup:    5 * sim.Millisecond,
		Duration:  opt.Duration,
		Seed:      opt.Seed,
		ETC:       etc,
		MultiGet:  opt.MultiGet,
	})
	var stats cluster.BatchStats
	for _, cli := range clis {
		stats.Accumulate(cli.BatchStats())
	}
	return res, stats
}

// FrontendScaling profiles the hosted frontend tier: first the
// single-frontend ceiling (offered load swept past saturation on one
// batched frontend), then the NxM matrix with the batched submission
// queue ablated against the per-op spine at every N. The paper scales
// the native side (Figure 6); this is the same question asked of the
// hosted side, where per-op syscall pricing is exactly what the
// coalesced GETQ+Noop rounds amortize.
func FrontendScaling(opt FrontendScalingOptions) FrontendScalingResult {
	opt.applyDefaults()
	out := FrontendScalingResult{Opt: opt}
	batched := cluster.BatchOptions{MaxBatch: opt.MaxBatch}
	perOp := cluster.BatchOptions{MaxBatch: 1}

	// Phase 1: the single-frontend ceiling, batched arm.
	for _, mult := range []float64{0.5, 1.0, 1.5} {
		o := opt
		o.PerFrontendRPS = opt.PerFrontendRPS * mult
		res, _ := frontendPoint(o, 1, batched)
		out.Ceiling = append(out.Ceiling, FrontendCeilingPoint{
			OfferedRPS:  o.PerFrontendRPS,
			AchievedRPS: res.AchievedRPS,
			P99:         res.P99,
		})
		out.NetErrs += res.NetErrs
	}

	// Phase 2: the NxM matrix, per-op vs batched at each N.
	for _, n := range opt.FrontendCounts {
		po, _ := frontendPoint(opt, n, perOp)
		ba, stats := frontendPoint(opt, n, batched)
		row := FrontendScalingRow{
			Frontends:  n,
			OfferedRPS: opt.PerFrontendRPS * float64(n),
			PerOp:      po,
			Batched:    ba,
			Stats:      stats,
		}
		if po.AchievedRPS > 0 {
			row.Ratio = ba.AchievedRPS / po.AchievedRPS
		}
		out.Rows = append(out.Rows, row)
		out.NetErrs += po.NetErrs + ba.NetErrs
	}
	if len(out.Rows) > 0 {
		out.Ratio = out.Rows[0].Ratio
		first, last := out.Rows[0].Batched.AchievedRPS, out.Rows[len(out.Rows)-1].Batched.AchievedRPS
		if first > 0 {
			out.ScaleOut = last / first
		}
	}
	return out
}

// minFrontendRatio is the floor for batched over per-op achieved
// throughput on one frontend (2.57x measured).
const minFrontendRatio = 1.3

// specFrontend runs the default matrix at both scales: N = 1, 2, 3 at
// 40ms a point is already smoke-sized, and it is the one run in the
// tree that boots extra frontends through Cluster.AddFrontend. The
// gated numbers are the N=1 row's.
func specFrontend(Scale, *audit.Log) Report {
	res := FrontendScaling(FrontendScalingOptions{})
	row := res.Rows[0]
	rep := Report{Text: FormatFrontendScaling(res)}
	rep.metric("frontends", row.Frontends)
	rep.metric("backends", res.Opt.Backends)
	rep.metric("multiget_keys_per_read", res.Opt.MultiGet)
	rep.metric("offered_arrivals_per_sec", row.OfferedRPS)
	rep.metric("per_op_rps", row.PerOp.AchievedRPS)
	rep.metric("batched_rps", row.Batched.AchievedRPS)
	rep.metric("batched_over_per_op", row.Ratio)
	rep.metric("batched_rounds", row.Stats.Rounds)
	rep.metric("multi_op_rounds", row.Stats.Batches)
	rep.metric("quiet_misses", row.Stats.QuietMisses)
	rep.metric("net_errs", res.NetErrs)
	rep.metric("floor_batched_over_per_op", minFrontendRatio)
	rep.require(row.Stats.Batches > 0, "batched arm formed no multi-op rounds")
	rep.require(row.Ratio >= minFrontendRatio, "batched/per-op ratio %.2fx below floor %.2fx", row.Ratio, minFrontendRatio)
	rep.require(res.NetErrs == 0, "%d failed client callbacks across the matrix", res.NetErrs)
	return rep
}

// FormatFrontendScaling renders the matrix.
func FormatFrontendScaling(r FrontendScalingResult) string {
	o := r.Opt
	out := fmt.Sprintf("FrontendScaling: %d backends x %d cores, frontends x%d cores, %.0f arrivals/s per frontend, multiget %d, max batch %d\n",
		o.Backends, o.CoresPerBackend, o.FrontendCores, o.PerFrontendRPS, o.MultiGet, o.MaxBatch)
	out += "  single-frontend ceiling (batched):\n"
	out += fmt.Sprintf("  %-12s %12s %10s\n", "offered/s", "achieved/s", "p99(us)")
	for _, p := range r.Ceiling {
		out += fmt.Sprintf("  %-12.0f %12.0f %10.1f\n", p.OfferedRPS, p.AchievedRPS, p.P99.Micros())
	}
	out += "  matrix (key-ops/s):\n"
	out += fmt.Sprintf("  %-10s %12s %12s %7s %10s %10s %12s\n",
		"frontends", "per-op", "batched", "ratio", "rounds", "quiet", "p99 b(us)")
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-10d %12.0f %12.0f %7.2f %10d %10d %12.1f\n",
			row.Frontends, row.PerOp.AchievedRPS, row.Batched.AchievedRPS, row.Ratio,
			row.Stats.Rounds, row.Stats.QuietMisses, row.Batched.P99.Micros())
	}
	if len(r.Rows) > 0 {
		row := r.Rows[0]
		total := float64(row.Stats.Rounds)
		if total > 0 {
			out += "  batched round sizes (N=1): "
			for i, label := range cluster.OpsPerBatchLabels {
				out += fmt.Sprintf("%s:%d ", label, row.Stats.OpsPerBatch[i])
			}
			out += "\n"
		}
	}
	out += fmt.Sprintf("  batched/per-op at N=1: %.2fx; batched scale-out across the sweep: %.2fx; net errors: %d\n",
		r.Ratio, r.ScaleOut, r.NetErrs)
	return out
}
