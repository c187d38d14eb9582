package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one metric the runner emits. clock says which of the
// two clocks it is read on: "host" is this process's, "virt" is sim.Time,
// "count" is neither (a ratio of counters).
type metricDef struct {
	name   string
	unit   string
	clock  string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what someone running the simulator, or reading its
// results, sees. The bounds are sized to the spread between runs with
// different seeds (README, "Spread"); with one seed the virtual metrics
// and the allocation counts repeat exactly and any difference is real.
var endToEnd = []metricDef{
	{"wall_us_per_op", "us", "host", "lower", 0.25},
	{"allocs_per_op", "count", "host", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "host", "lower", 0.05},
	{"live_heap_mb", "MiB", "host", "lower", 0.15},
	{"setup_s", "s", "host", "lower", 0.25},
	{"virt_ops_per_s", "1/s", "virt", "higher", 0.03},
	{"virt_p50_us", "us", "virt", "lower", 0.12},
	{"virt_p99_us", "us", "virt", "lower", 0.12},
	{"virt_slo_ops_per_s", "1/s", "virt", "higher", 0.15},
}

// counted are the per-layer metrics read off public counters and the Go
// runtime around a plain window. The last compares two windows: the same
// slices with GOMAXPROCS at nproc over GOMAXPROCS at 1, which is how
// everything else is measured (README, "GOMAXPROCS").
var counted = []metricDef{
	{"sim.events_per_op", "count", "count", "lower", 0},
	{"sim.wall_ns_per_event", "ns", "host", "lower", 0},
	{"sim.wall_s_per_virt_s", "s/s", "host", "lower", 0},
	{"event.dispatches_per_op", "count", "count", "lower", 0},
	{"machine.frames_per_op", "count", "count", "lower", 0},
	{"machine.wire_bytes_per_op", "B", "count", "lower", 0},
	{"netstack.retransmits", "count", "count", "lower", 0},
	{"netstack.persist_probes", "count", "count", "lower", 0},
	{"memcached.requests_per_op", "count", "count", "lower", 0},
	{"memcached.hit_ratio", "ratio", "count", "higher", 0},
	{"memcached.evictions_per_kop", "count", "count", "lower", 0},
	{"memcached.peak_over_budget_bytes", "B", "count", "lower", 0},
	{"cluster.hotkey.hit_ratio", "ratio", "count", "higher", 0},
	{"cluster.batch.ops_per_round", "count", "count", "higher", 0},
	{"cluster.hottest_backend_share", "ratio", "count", "lower", 0},
	{"load.submit_delay_p99_us", "us", "virt", "lower", 0},
	{"load.backlog_end", "count", "count", "lower", 0},
	{"load.virt_p999_us", "us", "virt", "lower", 0},
	{"go.cpu_us_per_op", "us", "host", "lower", 0},
	{"go.gc_cycles", "count", "host", "lower", 0},
	{"go.gc_pause_ms", "ms", "host", "lower", 0},
	{"go.peak_rss_mb", "MiB", "host", "lower", 0},
	{"go.goroutines_end", "count", "host", "lower", 0},
	{"go.wall_slice_iqr_frac", "ratio", "host", "lower", 0},
	{"go.nproc_wall_ratio", "ratio", "host", "lower", 0},
}

// layered are the per-layer metrics a layered run measures itself: the
// counters, then the traced window's spans and virtual segments.
var layered = func() []metricDef {
	defs := append([]metricDef(nil), counted...)
	for _, n := range spanNames {
		defs = append(defs,
			metricDef{"trace." + n + ".self_us_per_op", "us", "host", "lower", 0},
			metricDef{"trace." + n + ".calls_per_op", "count", "count", "lower", 0})
	}
	defs = append(defs,
		metricDef{"trace.below_app.self_us_per_op", "us", "host", "lower", 0},
		metricDef{"trace.overhead_frac", "ratio", "host", "lower", 0})
	for _, n := range vsegNames {
		defs = append(defs,
			metricDef{"vtrace." + n + "_p50_us", "us", "virt", "lower", 0},
			metricDef{"vtrace." + n + "_p99_us", "us", "virt", "lower", 0})
	}
	return defs
}()

// probed are the isolated probes' metrics.
var probed = func() []metricDef {
	var defs []metricDef
	for _, p := range probes {
		defs = append(defs,
			metricDef{"probe." + p.name + ".ns", "ns", "host", "lower", 0},
			metricDef{"probe." + p.name + ".allocs", "count", "host", "lower", 0})
	}
	return defs
}()

// perLayer is every per-layer metric.
var perLayer = append(append([]metricDef(nil), layered...), probed...)

// report is one run's outcome: what -out appends and -compare reads.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       string             `json:"env"`
	Digest    string             `json:"virt_digest"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func envLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func fullDigits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes every metric of the report that defs names, one per line,
// with its unit and clock.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-44s %18s %-6s %s\n", d.name, fullDigits(v), d.unit, d.clock)
		}
	}
}

func (r *report) printVerdict(w io.Writer) {
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-44s %18s %-6s %s   (%d failed of %d attempted)\n", "fail_frac", fullDigits(frac), "ratio", "count", r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(w, "  %-44s %18s\n", "virt_digest", r.Digest)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *report) resultLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.name] = mv{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// appendTo adds the report to a JSON-lines file.
func (r *report) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// runSeconds is the -seconds the benchmark is meant to be run with.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the runner's own tables, so
// that the two cannot name different things.
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		out.Workloads = append(out.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, unbounded{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b)
}
