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

// Figure7Row is one benchmark of the V8 suite with normalized scores
// (inverse runtime, normalized to Linux = 1.0, as the paper plots).
type Figure7Row struct {
	Name       string
	EbbRTScore float64
	LinuxScore float64
}

// Figure7 runs the suite under both environments and normalizes.
func Figure7() []Figure7Row {
	ebb := jsvm.RunSuite(jsvm.EbbRTEnv())
	lin := jsvm.RunSuite(jsvm.LinuxEnv())
	rows := make([]Figure7Row, 0, len(ebb)+1)
	prodE, prodL := 1.0, 1.0
	for i := range ebb {
		e := 1 / float64(ebb[i].Elapsed)
		l := 1 / float64(lin[i].Elapsed)
		rows = append(rows, Figure7Row{Name: ebb[i].Name, EbbRTScore: e / l, LinuxScore: 1})
		prodE *= e
		prodL *= l
	}
	n := float64(len(ebb))
	rows = append(rows, Figure7Row{
		Name:       "Overall",
		EbbRTScore: math.Pow(prodE, 1/n) / math.Pow(prodL, 1/n),
		LinuxScore: 1,
	})
	return rows
}

// FormatFigure7 renders normalized scores like the paper's bar chart.
func FormatFigure7(rows []Figure7Row) string {
	out := fmt.Sprintf("%-14s %10s %10s\n", "Benchmark", "EbbRT", "Linux")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %10.4f %10.4f\n", r.Name, r.EbbRTScore, r.LinuxScore)
	}
	return out
}

// Table2Row is one system's webserver latency row.
type Table2Row struct {
	System string
	Result load.Summary
}

// Table2 reproduces the node.js webserver latency measurement: the static
// 148-byte response under moderate wrk load (closed loop, as wrk runs),
// EbbRT vs Linux (VM). A non-zero rps switches to open-loop pacing.
func Table2(rps float64) []Table2Row {
	var rows []Table2Row
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM} {
		pair := testbed.NewPair(kind, 1, 4)
		srv := httpd.NewServer()
		if err := srv.Serve(pair.Server); err != nil {
			panic(err)
		}
		cfg := load.DefaultWrk()
		cfg.TargetRPS = rps
		dial := func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn)) {
			pair.Client.Dial(c, testbed.ServerIP, httpd.Port, cb, onConnect)
		}
		rows = append(rows, Table2Row{System: kind.String(), Result: load.RunWrk(pair.Client, dial, cfg)})
	}
	return rows
}

// FormatTable2 renders the table like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	out := fmt.Sprintf("%-14s %12s %16s\n", "System", "Mean", "99th Percentile")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %10.2fus %14.2fus\n",
			r.System, r.Result.Mean.Micros(), r.Result.P99.Micros())
	}
	return out
}

// specTable2 prints the table under wrk's closed loop and reports each
// row as metrics.
func specTable2(Scale, *audit.Log) Report {
	rows := Table2(0)
	rep := Report{Text: FormatTable2(rows)}
	for _, r := range rows {
		sys := strings.ToLower(r.System)
		rep.metric(sys+"_mean_us", r.Result.Mean.Micros())
		rep.metric(sys+"_p99_us", r.Result.P99.Micros())
		rep.metric(sys+"_samples", r.Result.Samples)
	}
	return rep
}
