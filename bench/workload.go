package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ebbrt/internal/sim"
)

// outcome is what a finished window leaves once its topology is let go.
type outcome struct {
	usMedian  float64 // median slice
	digest    string  // of the window alone, without ladder
	attempted uint64
	failed    uint64
	failures  []string
	counted   map[string]float64
}

func (w *window) outcome() outcome {
	e := w.topo.e
	d := newDigest()
	d.addWindow(w)
	return outcome{
		usMedian:  median(w.usPerOp()),
		digest:    d.sum(),
		attempted: e.attempted,
		failed:    e.failed,
		failures:  e.failures,
		counted:   w.countedMetrics(),
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// spansDir is where a traced window's spans are written, relative to the
// working directory: beside the binary run.sh builds.
const spansDir = ".bench_build"

// endToEndMetrics derives the end-to-end metrics, bar setup_s, from a
// drained window and the ladder climbed after it.
func (w *window) endToEndMetrics(steps []step) map[string]float64 {
	lat := w.ph.lat
	ops := float64(w.ops)
	return map[string]float64{
		"wall_us_per_op":     w.usPerOp()[0],
		"allocs_per_op":      float64(w.mallocs) / ops,
		"alloc_kb_per_op":    float64(w.allocBytes) / 1024 / ops,
		"live_heap_mb":       float64(w.liveHeap) / (1 << 20),
		"virt_ops_per_s":     float64(w.ph.opsInTime) / (float64(w.virt) / 1e9),
		"virt_p50_us":        us(percentile(lat, 50)),
		"virt_p99_us":        us(percentile(lat, 99)),
		"virt_slo_ops_per_s": sloOps(steps),
	}
}

// plainRun measures one workload with tracing off: the window, the rate
// ladder on the same topology, then the remaining set-ups.
func plainRun(out io.Writer, sp *spec, seed uint64, seconds int) (*report, error) {
	virt := sp.windowPerSec * sim.Time(seconds)
	w, err := measure(sp, seed, virt, false)
	if err != nil {
		return nil, err
	}
	steps := climb(w.topo, ladderWarm, ladderStep)
	oc := w.outcome() // after the ladder: its failures count too
	d := newDigest()
	d.addWindow(w)
	d.addLadder(steps)
	r := &report{
		Workload: sp.name, Seed: seed, Seconds: seconds, Env: envLine(), Digest: d.sum(),
		Attempted: oc.attempted, Failed: oc.failed, Failures: oc.failures,
		Metrics: w.endToEndMetrics(steps),
	}
	for name, v := range oc.counted {
		r.Metrics[name] = v
	}

	// The other set-ups come last, so that their garbage and their
	// parked goroutines cannot reach the window.
	setups := []float64{w.setup.Seconds()}
	w.topo = nil
	for len(setups) < sp.setups {
		_, _, d, err := setUp(sp, seed, virt, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r.Metrics["setup_s"] = median(setups)

	s := w.usPerOp()
	q1, q3 := quartiles(s)
	fmt.Fprintf(out, "%s seed=%d: %.3fs virtual at %.0f arrivals/s (%.0f ops/s offered), %d ops in %.2fs wall, %d latency samples\n",
		sp.name, seed, float64(w.virt)/1e9, sp.rate, sp.rate*sp.opsPerArrival(), w.ops, w.wall.Seconds(), len(w.ph.lat))
	fmt.Fprintf(out, "  wall_us_per_op over %d slices: min %.3f q1 %.3f median %.3f q3 %.3f max %.3f; set-ups %.3fs\n",
		len(s), s[0], q1, median(s), q3, s[len(s)-1], setups)
	for _, s := range steps {
		fmt.Fprintf(out, "  ladder %7.0f arrivals/s: p99 %9.1fus (limit %.0fus) from %d samples, %d in time, %.0f ops/s, %d failed, ok=%v\n",
			s.rate, s.p99.Micros(), sp.slo.Micros(), s.arrivals, s.inTime, s.opsPerSec, s.failed, s.ok)
	}
	r.print(out, endToEnd)
	r.printVerdict(out)
	return r, nil
}

// countedMetrics derives the per-layer metrics that come from public
// counters and from the Go runtime around the window.
func (w *window) countedMetrics() map[string]float64 {
	c, ph := w.cnt, w.ph
	ops := float64(w.ops)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var requests, hottest uint64
	for _, n := range c.requests {
		requests += n
		hottest = max(hottest, n)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero peak RSS says it failed
	q1, q3 := quartiles(w.usPerOp())
	return map[string]float64{
		"sim.events_per_op":                float64(c.fired) / ops,
		"sim.wall_ns_per_event":            float64(w.wall.Nanoseconds()) / float64(c.fired),
		"sim.wall_s_per_virt_s":            w.wall.Seconds() / (float64(w.virt) / 1e9),
		"event.dispatches_per_op":          float64(c.dispatched) / ops,
		"machine.frames_per_op":            float64(c.frames) / ops,
		"machine.wire_bytes_per_op":        float64(c.wireBytes) / ops,
		"netstack.retransmits":             float64(c.retransmits),
		"netstack.persist_probes":          float64(c.persist),
		"memcached.requests_per_op":        float64(requests) / ops,
		"memcached.hit_ratio":              ratio(ph.hits, ph.reads),
		"memcached.evictions_per_kop":      1000 * float64(c.evictions) / ops,
		"memcached.peak_over_budget_bytes": float64(c.overBudget),
		"cluster.hotkey.hit_ratio":         ratio(c.hotHits, c.hotHits+c.hotMisses),
		"cluster.batch.ops_per_round":      ratio(c.batchOps, c.batchRounds),
		"cluster.hottest_backend_share":    ratio(hottest, requests),
		"load.submit_delay_p99_us":         us(percentile(ph.delay, 99)),
		"load.backlog_end":                 float64(w.backlog),
		"load.virt_p999_us":                us(percentile(ph.lat, 99.9)),
		"go.cpu_us_per_op":                 us(w.cpu.Nanoseconds()) / ops,
		"go.gc_cycles":                     float64(w.gcCycles),
		"go.gc_pause_ms":                   float64(w.gcPause.Nanoseconds()) / 1e6,
		"go.peak_rss_mb":                   float64(ru.Maxrss) / 1024,
		"go.goroutines_end":                float64(runtime.NumGoroutine()),
		"go.wall_slice_iqr_frac":           (q3 - q1) / median(w.usPerOp()),
	}
}

// traceMetrics derives the traced window's metrics from its recorded
// slices, the even ones: host self time and calls per op for each span
// name, what is left of those slices' wall time below the wrapped
// interfaces, the quantiles of each virtual stretch of an arrival, and
// the recording overhead, the median ratio of a recorded slice to the
// unrecorded one after it.
func (w *window) traceMetrics() map[string]float64 {
	tr := w.topo.e.tr
	var wall time.Duration
	var ops uint64
	var ratios []float64
	for i := 0; i+1 < len(w.sliceWall); i += 2 {
		wall += w.sliceWall[i]
		ops += w.sliceOps[i]
		if w.sliceOps[i] > 0 && w.sliceOps[i+1] > 0 {
			on := float64(w.sliceWall[i]) / float64(w.sliceOps[i])
			off := float64(w.sliceWall[i+1]) / float64(w.sliceOps[i+1])
			ratios = append(ratios, on/off)
		}
	}
	m := map[string]float64{"trace.overhead_frac": median(ratios) - 1}
	self, calls := tr.selfTimes()
	app := int64(0)
	for k, name := range spanNames {
		m["trace."+name+".self_us_per_op"] = us(self[k]) / float64(ops)
		m["trace."+name+".calls_per_op"] = float64(calls[k]) / float64(ops)
		app += self[k]
	}
	m["trace.below_app.self_us_per_op"] = us(wall.Nanoseconds()-app) / float64(ops)
	for k, name := range vsegNames {
		s := tr.vseg[k]
		slices.Sort(s)
		m["vtrace."+name+"_p50_us"] = us(percentile(s, 50))
		m["vtrace."+name+"_p99_us"] = us(percentile(s, 99))
	}
	return m
}

// layeredRun produces the per-layer report of one workload, less the
// probes, from three windows on fresh topologies: a plain one a quarter
// of the usual length, for the counters; a traced one as long, for spans
// and virtual segments, which must agree with the plain one on every
// virtual result; and a plain one half as long with GOMAXPROCS back at
// nproc, for go.nproc_wall_ratio. The windows are short and compared
// with each other, so a discarded one warms the process first. The spans
// go to a file in spansDir.
func layeredRun(out io.Writer, sp *spec, seed uint64, seconds int, nproc int) (*report, error) {
	quarter := sp.windowPerSec * sim.Time(seconds) / 4
	if _, err := measure(sp, seed, quarter/2, false); err != nil {
		return nil, err
	}
	w, err := measure(sp, seed, quarter, false)
	if err != nil {
		return nil, err
	}
	plain := w.outcome()
	if w, err = measure(sp, seed, quarter, true); err != nil {
		return nil, err
	}
	traced := w.outcome()
	tr := w.topo.e.tr

	r := &report{
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: true, Env: envLine(), Digest: traced.digest,
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Failures: append(plain.failures, traced.failures...), Metrics: plain.counted,
	}
	fail := func(format string, args ...any) {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	if traced.digest != plain.digest {
		fail("the traced window's virtual results (%s) differ from the plain window's (%s)", traced.digest, plain.digest)
	}
	if tr.broken != 0 {
		fail("%d spans ended out of order", tr.broken)
	}
	if tr.badSums != 0 {
		fail("%d arrivals' virtual segments do not sum to their latency", tr.badSums)
	}
	for name, v := range w.traceMetrics() {
		r.Metrics[name] = v
	}
	fmt.Fprintf(out, "%s seed=%d traced: %.3fs virtual, %d ops in %.2fs wall, every other slice recorded: %d spans, %d arrivals cut into segments\n",
		sp.name, seed, float64(w.virt)/1e9, w.ops, w.wall.Seconds(), len(tr.spans), len(tr.vseg[0]))
	path := filepath.Join(spansDir, "spans-"+sp.name+".csv")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans written to %s\n", path)
	w.topo = nil

	runtime.GOMAXPROCS(nproc)
	w, err = measure(sp, seed, quarter/2, false)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	wide := w.outcome()
	r.Attempted += wide.attempted
	r.Failed += wide.failed
	r.Failures = append(r.Failures, wide.failures...)
	// Median slices: with more than one P the quietest slice is the one
	// whose hand-offs happened to stay on one thread, not the usual cost.
	r.Metrics["go.nproc_wall_ratio"] = wide.usMedian / plain.usMedian
	fmt.Fprintf(out, "  median slice with GOMAXPROCS=%d: %.3f us/op, with 1: %.3f\n", nproc, wide.usMedian, plain.usMedian)
	return r, nil
}
