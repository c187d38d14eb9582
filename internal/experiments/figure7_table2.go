package experiments

import (
	"fmt"
	"math"
	"strings"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/audit"
	"ebbrt/internal/event"
	"ebbrt/internal/jsvm"
	"ebbrt/internal/load"
	"ebbrt/internal/testbed"
)

// specFigure7 runs the V8 suite under both environments and plots each
// benchmark's score (inverse runtime) normalized to Linux = 1.0, as the
// paper does, then the geometric-mean overall score. Every score is a
// metric, so the golden pins the suite's determinism as well as its
// shape. The conditions are the paper's: EbbRT wins all eight
// benchmarks, the overall gain is a few percent, and Splay - the
// allocation-heavy benchmark - gains the most, by at least 6 %.
func specFigure7(Scale, *audit.Log) Report {
	ebb, lin := jsvm.RunSuite(jsvm.EbbRTEnv()), jsvm.RunSuite(jsvm.LinuxEnv())
	rep := Report{Text: fmt.Sprintf("%-14s %10s %10s\n", "Benchmark", "EbbRT", "Linux")}
	row := func(name string, score float64) {
		rep.Text += fmt.Sprintf("%-14s %10.4f %10.4f\n", name, score, 1.0)
		rep.metric(strings.ToLower(name)+"_score", score)
		rep.require(score > 1, "%s: EbbRT score %.4f does not beat Linux", name, score)
	}
	rep.require(len(ebb) == 8, "suite has %d benchmarks, want 8", len(ebb))
	prodE, prodL := 1.0, 1.0
	scores := make([]float64, len(ebb))
	splay := 0.0
	for i := range ebb {
		e := 1 / float64(ebb[i].Elapsed)
		l := 1 / float64(lin[i].Elapsed)
		scores[i] = e / l
		row(ebb[i].Name, scores[i])
		if ebb[i].Name == "Splay" {
			splay = scores[i]
		}
		prodE *= e
		prodL *= l
	}
	n := float64(len(ebb))
	overall := math.Pow(prodE, 1/n) / math.Pow(prodL, 1/n)
	row("Overall", overall)
	rep.require(overall >= 1.01 && overall <= 1.12, "overall %.4f outside [1.01, 1.12] around the paper's 1.0409", overall)
	rep.require(splay >= 1.06, "Splay score %.4f below 1.06 (paper 1.139, the largest gain)", splay)
	for i, score := range scores {
		rep.require(score <= splay, "%s score %.4f exceeds Splay's %.4f", ebb[i].Name, score, splay)
	}
	return rep
}

// specTable2 reproduces the node.js webserver latency measurement: the
// static 148-byte response under wrk's closed loop, EbbRT vs Linux (VM),
// each row reported as metrics. EbbRT must win both the mean and the
// p99.
func specTable2(Scale, *audit.Log) Report {
	rep := Report{Text: fmt.Sprintf("%-14s %12s %16s\n", "System", "Mean", "99th Percentile")}
	var rows []load.Summary
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM} {
		pair := testbed.NewPair(kind, 1, 4)
		srv := httpd.NewServer()
		if err := srv.Serve(pair.Server); err != nil {
			panic(err)
		}
		dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
			pair.Client.Dial(c, testbed.ServerIP, httpd.Port, cb, onConnect)
		}
		r := load.RunWrk(pair.Client, dial, load.DefaultWrk())
		rows = append(rows, r)
		rep.Text += fmt.Sprintf("%-14s %10.2fus %14.2fus\n", kind, r.Mean.Micros(), r.P99.Micros())
		sys := strings.ToLower(kind.String())
		rep.metric(sys+"_mean_us", r.Mean.Micros())
		rep.metric(sys+"_p99_us", r.P99.Micros())
		rep.metric(sys+"_samples", r.Samples)
	}
	ebb, lin := rows[0], rows[1]
	rep.require(ebb.Mean < lin.Mean, "EbbRT mean %.2fus not below Linux %.2fus", ebb.Mean.Micros(), lin.Mean.Micros())
	rep.require(ebb.P99 < lin.P99, "EbbRT p99 %.2fus not below Linux %.2fus", ebb.P99.Micros(), lin.P99.Micros())
	return rep
}
