package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/apps/netpipe"
	"ebbrt/internal/audit"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// specFigure4 reproduces the NetPIPE experiment for EbbRT and Linux (both
// virtualized, same system on both ends), then appends the zero-copy
// ablation: the EbbRT stack made to pay a per-byte copy at the
// application boundary, at Linux's user/kernel copy rate, which isolates
// the claim of paper §3.6. EbbRT must win the 64 B one-way latency and
// the 64 kB goodput.
func specFigure4(s Scale, _ *audit.Log) Report {
	reps := pick(s, 3, 10)
	sizes := netpipe.DefaultSizes()
	ebb, errEbb := netpipe.Run(testbed.EbbRT, sizes, reps)
	lin, errLin := netpipe.Run(testbed.LinuxVM, sizes, reps)
	ablation := []int{64, 4096, 65536, 262144, 786432}
	zero, errZero := netpipe.Run(testbed.EbbRT, ablation, reps)
	copied, errCopied := netpipe.RunWithStack(testbed.EbbRT, ablation, reps, costs.LinuxCopyNsPerByte)
	if err := errors.Join(errEbb, errLin, errZero, errCopied); err != nil {
		return Report{Failures: []string{err.Error()}}
	}
	rep := Report{Text: fmt.Sprintf("%-10s %12s %12s %12s\n", "System", "Size(B)", "OneWay(us)", "Goodput(Mbps)")}
	for _, sr := range []struct {
		kind   testbed.ServerKind
		points []netpipe.Point
	}{{testbed.EbbRT, ebb}, {testbed.LinuxVM, lin}} {
		for _, p := range sr.points {
			rep.Text += fmt.Sprintf("%-10s %12d %12.2f %12.0f\n", sr.kind, p.Size, p.OneWay.Micros(), p.GoodputMbps)
		}
	}
	rep.Text += "\nZero-copy ablation: EbbRT vs EbbRT with forced per-byte copies\n" +
		fmt.Sprintf("%-10s %14s %14s\n", "Size(B)", "ZeroCopy(Mbps)", "Copying(Mbps)")
	for i, size := range ablation {
		rep.Text += fmt.Sprintf("%-10d %14.0f %14.0f\n", size, zero[i].GoodputMbps, copied[i].GoodputMbps)
	}
	small, large := slices.Index(sizes, 64), slices.Index(sizes, 65536)
	rep.require(ebb[small].OneWay < lin[small].OneWay, "64B one-way latency: EbbRT %.2fus not below Linux %.2fus", ebb[small].OneWay.Micros(), lin[small].OneWay.Micros())
	rep.require(ebb[large].GoodputMbps > lin[large].GoodputMbps, "64kB goodput: EbbRT %.0f Mbps not above Linux %.0f Mbps", ebb[large].GoodputMbps, lin[large].GoodputMbps)
	return rep
}

// curve is one line of a memcached figure: a system, and for the
// ablations the switch that differs and the label that says so.
type curve struct {
	kind      testbed.ServerKind
	label     string
	locked    bool // the single-lock store instead of the RCU table
	noPolling bool // leave the driver interrupt-driven
}

// series is one curve as measured, and its throughput at the paper's
// 500 us p99 SLA: the highest achieved rate whose p99 meets it.
type series struct {
	name   string
	points []load.MutilateResult
	sla    float64
}

// memcachedPoint runs one load point of a curve: a fresh client/server
// pair, the store the curve names, mutilate's ETC load at rate for the
// window.
func memcachedPoint(cv curve, cores int, rate float64, window sim.Time) load.MutilateResult {
	pair := testbed.NewPair(cv.kind, cores, 8)
	if cv.noPolling {
		if native, ok := pair.Server.(*appnet.Native); ok {
			native.Stack.Cfg.NoPolling = true
		}
	}
	var store memcached.Store = memcached.NewRCUStore()
	if cv.locked {
		store = memcached.NewLockedStore()
	}
	srv := memcached.NewServer(store, cores)
	if err := srv.Serve(pair.Server); err != nil {
		panic(err)
	}
	cfg := load.DefaultMutilate(rate)
	cfg.Duration = window
	dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
		pair.Client.Dial(c, testbed.ServerIP, memcached.Port, cb, onConnect)
	}
	return load.RunMutilate(pair.Client, dial, srv, cfg)
}

// memcachedSpec regenerates a Figure 5/6 plot of the given curves. Full
// sweeps the figure's offered loads at the load generator's 250ms per
// point; Smoke takes one mid-sweep load at 60ms. A gated plot also
// reports every printed number as a metric. Every point must record
// samples, and check, when set, adds the figure's own conditions.
func memcachedSpec(cores int, gated bool, check func(*Report, []series), curves ...curve) func(Scale, *audit.Log) Report {
	return func(s Scale, _ *audit.Log) Report {
		rates := pick(s, []float64{150000}, []float64{25000, 50000, 75000, 100000, 125000, 150000, 175000, 200000, 250000, 300000, 350000})
		if cores >= 4 {
			rates = pick(s, []float64{400000}, []float64{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000, 900000, 1000000})
		}
		window := pick(s, 60*sim.Millisecond, 250*sim.Millisecond)
		var all []series
		rep := Report{Text: fmt.Sprintf("%-14s %12s %12s %12s %12s\n", "System", "Target(RPS)", "Achieved", "Mean(us)", "p99(us)")}
		for _, cv := range curves {
			sr := series{name: cmp.Or(cv.label, cv.kind.String())}
			for _, rate := range rates {
				p := memcachedPoint(cv, cores, rate, window)
				sr.points = append(sr.points, p)
				if p.P99 <= 500*sim.Microsecond && p.AchievedRPS > sr.sla {
					sr.sla = p.AchievedRPS
				}
				rep.Text += fmt.Sprintf("%-14s %12.0f %12.0f %12.1f %12.1f\n",
					sr.name, p.TargetRPS, p.AchievedRPS, p.Mean.Micros(), p.P99.Micros())
				rep.require(p.Samples > 0, "%s at %.0f RPS recorded no samples", sr.name, rate)
			}
			all = append(all, sr)
		}
		rep.Text += "Throughput at 500us p99 SLA:\n"
		for _, sr := range all {
			rep.Text += fmt.Sprintf("  %-14s %12.0f RPS\n", sr.name, sr.sla)
			if !gated {
				continue
			}
			sys := strings.ToLower(strings.ReplaceAll(sr.name, " ", "_"))
			for _, p := range sr.points {
				at := fmt.Sprintf("%s_%.0f", sys, p.TargetRPS)
				rep.metric(at+"_achieved_rps", p.AchievedRPS)
				rep.metric(at+"_mean_us", p.Mean.Micros())
				rep.metric(at+"_p99_us", p.P99.Micros())
			}
			rep.metric(sys+"_sla_rps", sr.sla)
		}
		if check != nil {
			check(&rep, all)
		}
		return rep
	}
}

// ebbrtBeatsLinuxAtSLA is Figure 5's headline: EbbRT (the first curve)
// sustains more throughput within the SLA than Linux in a VM (the
// second).
func ebbrtBeatsLinuxAtSLA(rep *Report, all []series) {
	ebb, vm := all[0], all[1]
	rep.require(ebb.sla > vm.sla, "SLA throughput: %s %.0f RPS not above %s %.0f RPS", ebb.name, ebb.sla, vm.name, vm.sla)
}

// rcuBeatsLocked is the store ablation: at every offered load the RCU
// table's mean latency is below the single-lock store's.
func rcuBeatsLocked(rep *Report, all []series) {
	for i, p := range all[0].points {
		q := all[1].points[i]
		rep.require(p.Mean < q.Mean, "at %.0f RPS the RCU store's mean %.1fus is not below the locked store's %.1fus",
			p.TargetRPS, p.Mean.Micros(), q.Mean.Micros())
	}
}
