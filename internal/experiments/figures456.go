package experiments

import (
	"errors"
	"fmt"
	"strings"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/apps/netpipe"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// Figure4Series is one system's NetPIPE curve.
type Figure4Series struct {
	System string
	Points []netpipe.Point
}

// Figure4 reproduces the NetPIPE experiment for EbbRT and Linux (both
// virtualized, same system on both ends).
func Figure4(sizes []int, reps int) ([]Figure4Series, error) {
	if len(sizes) == 0 {
		sizes = netpipe.DefaultSizes()
	}
	if reps <= 0 {
		reps = 10
	}
	var out []Figure4Series
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM} {
		pts, err := netpipe.Run(kind, sizes, reps)
		if err != nil {
			return nil, fmt.Errorf("netpipe %v: %w", kind, err)
		}
		out = append(out, Figure4Series{System: kind.String(), Points: pts})
	}
	return out, nil
}

// FormatFigure4 renders goodput vs message size per system.
func FormatFigure4(series []Figure4Series) string {
	out := fmt.Sprintf("%-10s %12s %12s %12s\n", "System", "Size(B)", "OneWay(us)", "Goodput(Mbps)")
	for _, s := range series {
		for _, p := range s.Points {
			out += fmt.Sprintf("%-10s %12d %12.2f %12.0f\n", s.System, p.Size, p.OneWay.Micros(), p.GoodputMbps)
		}
	}
	return out
}

// specFigure4 regenerates the figure and appends the zero-copy ablation:
// the EbbRT stack made to pay a per-byte copy at the application
// boundary, which isolates the claim of paper §3.6.
func specFigure4(s Scale, _ *audit.Log) Report {
	reps := pick(s, 3, 10)
	sizes := []int{64, 4096, 65536, 262144, 786432}
	series, err := Figure4(nil, reps)
	zero, errZero := netpipe.Run(testbed.EbbRT, sizes, reps)
	copied, errCopied := netpipe.RunWithStack(testbed.EbbRT, sizes, reps, 0.12)
	if err := errors.Join(err, errZero, errCopied); err != nil {
		return Report{Failures: []string{err.Error()}}
	}
	text := FormatFigure4(series) + "\nZero-copy ablation: EbbRT vs EbbRT with forced per-byte copies\n" +
		fmt.Sprintf("%-10s %14s %14s\n", "Size(B)", "ZeroCopy(Mbps)", "Copying(Mbps)")
	for i, size := range sizes {
		text += fmt.Sprintf("%-10d %14.0f %14.0f\n", size, zero[i].GoodputMbps, copied[i].GoodputMbps)
	}
	return Report{Text: text}
}

// MemcachedOptions tunes the Figure 5/6 sweeps. The zero value is the
// paper's configuration: one core, RCU store, adaptive polling on.
type MemcachedOptions struct {
	Cores          int
	Store          string // "rcu" (default) or "locked" ablation
	DisablePolling bool   // ablation: leave the driver interrupt-driven
	Duration       sim.Time
}

// MemcachedSeries is one system's latency-vs-throughput curve.
type MemcachedSeries struct {
	System string
	Points []load.MutilateResult
}

// MemcachedCurve sweeps offered load for one system and returns the
// latency/throughput points of Figures 5 and 6.
func MemcachedCurve(kind testbed.ServerKind, rates []float64, opt MemcachedOptions) MemcachedSeries {
	if opt.Cores <= 0 {
		opt.Cores = 1
	}
	series := MemcachedSeries{System: kind.String()}
	for _, rate := range rates {
		series.Points = append(series.Points, memcachedPoint(kind, rate, opt))
	}
	return series
}

func memcachedPoint(kind testbed.ServerKind, rate float64, opt MemcachedOptions) load.MutilateResult {
	pair := testbed.NewPair(kind, opt.Cores, 8)
	if opt.DisablePolling {
		if native, ok := pair.Server.(*appnet.Native); ok {
			native.Stack.Cfg.AdaptivePolling = false
		}
	}
	var store memcached.Store
	if opt.Store == "locked" {
		store = memcached.NewLockedStore()
	} else {
		store = memcached.NewRCUStore()
	}
	srv := memcached.NewServer(store, opt.Cores)
	if err := srv.Serve(pair.Server); err != nil {
		panic(err)
	}
	cfg := load.DefaultMutilate(rate)
	if opt.Duration > 0 {
		cfg.Duration = opt.Duration
	}
	dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
		pair.Client.Dial(c, testbed.ServerIP, memcached.Port, cb, onConnect)
	}
	return load.RunMutilate(pair.Client, dial, srv, cfg)
}

// SLAThroughput reports the highest achieved throughput whose p99 latency
// meets the given SLA - the paper's headline comparison at a 500 us 99th
// percentile SLA.
func SLAThroughput(points []load.MutilateResult, sla sim.Time) float64 {
	best := 0.0
	for _, p := range points {
		if p.P99 <= sla && p.AchievedRPS > best {
			best = p.AchievedRPS
		}
	}
	return best
}

// FormatMemcached renders curves like the paper's Figures 5/6.
func FormatMemcached(series []MemcachedSeries) string {
	out := fmt.Sprintf("%-14s %12s %12s %12s %12s\n", "System", "Target(RPS)", "Achieved", "Mean(us)", "p99(us)")
	for _, s := range series {
		for _, p := range s.Points {
			out += fmt.Sprintf("%-14s %12.0f %12.0f %12.1f %12.1f\n",
				s.System, p.TargetRPS, p.AchievedRPS, p.Mean.Micros(), p.P99.Micros())
		}
	}
	return out
}

// curve is one line of a memcached figure: a system, and for the
// ablations the option that differs and the label that says so.
type curve struct {
	kind  testbed.ServerKind
	label string
	opt   MemcachedOptions
}

// memcachedSpec regenerates a Figure 5/6 plot of the given curves. Full
// sweeps the figure's offered loads at the load generator's 250ms per
// point; Smoke takes one mid-sweep load at 60ms. A gated plot also
// reports every printed number as a metric.
func memcachedSpec(cores int, gated bool, curves ...curve) func(Scale, *audit.Log) Report {
	return func(s Scale, _ *audit.Log) Report {
		rates := pick(s, []float64{150000}, DefaultRatesSingleCore())
		if cores >= 4 {
			rates = pick(s, []float64{400000}, DefaultRatesFourCore())
		}
		var series []MemcachedSeries
		for _, cv := range curves {
			cv.opt.Cores, cv.opt.Duration = cores, pick(s, 60*sim.Millisecond, 0)
			sr := MemcachedCurve(cv.kind, rates, cv.opt)
			if cv.label != "" {
				sr.System = cv.label
			}
			series = append(series, sr)
		}
		rep := Report{Text: FormatMemcached(series) + "Throughput at 500us p99 SLA:\n"}
		for _, sr := range series {
			sla := SLAThroughput(sr.Points, 500*sim.Microsecond)
			rep.Text += fmt.Sprintf("  %-14s %12.0f RPS\n", sr.System, sla)
			if !gated {
				continue
			}
			sys := strings.ToLower(strings.ReplaceAll(sr.System, " ", "_"))
			for _, p := range sr.Points {
				at := fmt.Sprintf("%s_%.0f", sys, p.TargetRPS)
				rep.metric(at+"_achieved_rps", p.AchievedRPS)
				rep.metric(at+"_mean_us", p.Mean.Micros())
				rep.metric(at+"_p99_us", p.P99.Micros())
			}
			rep.metric(sys+"_sla_rps", sla)
		}
		return rep
	}
}

// DefaultRatesSingleCore is the Figure 5 sweep (single-core servers).
func DefaultRatesSingleCore() []float64 {
	return []float64{25000, 50000, 75000, 100000, 125000, 150000, 175000, 200000, 250000, 300000, 350000}
}

// DefaultRatesFourCore is the Figure 6 sweep (four-core servers).
func DefaultRatesFourCore() []float64 {
	return []float64{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000, 900000, 1000000}
}
