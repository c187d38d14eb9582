package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ebbrt/internal/sim"
)

// tiny shrinks a workload to test scale: a tenth of the keys (too few to
// press on a bounded store), a window and two ladder rungs of a few
// milliseconds.
func tiny(sp *spec) *spec {
	t := *sp
	t.keys = sp.keys / 10
	t.ladder = sp.ladder[:2]
	return &t
}

const (
	tinyWindow = 6 * sim.Millisecond
	tinyWarm   = sim.Millisecond
	tinyStep   = 3 * sim.Millisecond
)

// tinyRun is plainRun at test scale: window, ladder, digest, verdict.
func tinyRun(t *testing.T, sp *spec, seed uint64, traced bool) (*window, []step, string) {
	t.Helper()
	w, err := measure(tiny(sp), seed, tinyWindow, traced)
	if err != nil {
		t.Fatal(err)
	}
	steps := climb(w.topo, tinyWarm, tinyStep)
	d := newDigest()
	d.addWindow(w)
	d.addLadder(steps)
	if e := w.topo.e; e.failed != 0 {
		t.Fatalf("%s seed %d: %d ops failed: %v", sp.name, seed, e.failed, e.failures)
	}
	return w, steps, d.sum()
}

// TestDeterminism runs every workload twice with one seed and once with
// another: the first two must agree on every virtual result, the third
// must not, and nothing may fail in any.
func TestDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sp := range specs {
		_, _, a := tinyRun(t, sp, 1, false)
		_, _, b := tinyRun(t, sp, 1, false)
		_, _, c := tinyRun(t, sp, 2, false)
		if a != b {
			t.Errorf("%s: one seed, two digests: %s and %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 share digest %s", sp.name, a)
		}
	}
}

// TestEmitted checks that the runner emits exactly the metrics it
// defines - so that, with TestSchema, BENCHMARK.json and the runner name
// the same ones - and that a traced window agrees with a plain one.
func TestEmitted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emitted := map[string]bool{"setup_s": true, "go.nproc_wall_ratio": true}
	for _, sp := range []*spec{specs[0], specs[3]} {
		plain, steps, plainDigest := tinyRun(t, sp, 1, false)
		traced, _, tracedDigest := tinyRun(t, sp, 1, true)
		if plainDigest != tracedDigest {
			t.Errorf("%s: tracing changed the virtual results: %s plain, %s traced", sp.name, plainDigest, tracedDigest)
		}
		tr := traced.topo.e.tr
		if tr.broken != 0 || tr.badSums != 0 {
			t.Errorf("%s: %d spans ended out of order, %d arrivals' segments missed their latency", sp.name, tr.broken, tr.badSums)
		}
		if len(tr.vseg[0]) == 0 || len(tr.spans) == 0 {
			t.Errorf("%s: traced window recorded %d spans and cut %d arrivals", sp.name, len(tr.spans), len(tr.vseg[0]))
		}
		tm := traced.traceMetrics()
		sum := tm["trace.below_app.self_us_per_op"]
		for _, name := range spanNames {
			sum += tm["trace."+name+".self_us_per_op"]
		}
		var wall time.Duration
		var ops uint64
		for i := 0; i < nSlices; i += 2 {
			wall += traced.sliceWall[i]
			ops += traced.sliceOps[i]
		}
		if perOp := us(wall.Nanoseconds()) / float64(ops); sum < 0.98*perOp || sum > 1.02*perOp {
			t.Errorf("%s: self times sum to %.3f us/op, the recorded slices' wall is %.3f", sp.name, sum, perOp)
		}
		for _, m := range []map[string]float64{plain.endToEndMetrics(steps), plain.countedMetrics(), tm} {
			for name, v := range m {
				emitted[name] = true
				if v != v || (v < 0 && name != "trace.overhead_frac") {
					t.Errorf("%s: %s = %v", sp.name, name, v)
				}
			}
		}
	}
	pe := newProbeEnv(1)
	for _, p := range probes {
		emitted["probe."+p.name+".ns"] = true
		emitted["probe."+p.name+".allocs"] = true
		if p.fixed != 0 {
			continue // seconds each: netpipe.Run runs its testbed's clock out
		}
		if ns, _ := timeProbe(p, pe, 2*time.Millisecond); ns <= 0 {
			t.Errorf("probe %s took %v ns per op", p.name, ns)
		}
	}
	defined := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if defined[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		defined[d.name] = true
		if !emitted[d.name] {
			t.Errorf("metric %s is defined and never emitted", d.name)
		}
	}
	for name := range emitted {
		if !defined[name] {
			t.Errorf("metric %s is emitted and not defined", name)
		}
	}
}

// TestSchema holds BENCHMARK.json to the runner and to its limits.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: over 8, 16 or 128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), the runner's is %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the runner", len(got), kind, len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d is %s [%s, %s], the runner's is %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %s: bad name, unit or direction", kind, m.Name)
			}
			if d.clock != "host" && d.clock != "virt" && d.clock != "count" {
				t.Errorf("%s metric %s: clock %q", kind, d.name, d.clock)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s metric %s: bound %v, the runner's is %v", kind, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
}

func writeReports(t *testing.T, path string, values map[string][]float64) {
	t.Helper()
	n := 0
	for _, v := range values {
		n = max(n, len(v))
	}
	for i := 0; i < n; i++ {
		r := report{Workload: "mc1_etc", Seed: uint64(i + 1), Digest: "d", Metrics: map[string]float64{}}
		for name, v := range values {
			r.Metrics[name] = v[i%len(v)]
		}
		if err := r.appendTo(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompare feeds -compare one metric of each verdict.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002} }
	writeReports(t, oldPath, map[string][]float64{
		"wall_us_per_op":          steady(20),
		"allocs_per_op":           steady(100),
		"virt_ops_per_s":          steady(150e3),
		"virt_p99_us":             {10, 20, 30, 40, 50},
		"sim.events_per_op":       steady(18),
		"event.dispatches_per_op": steady(6),
	})
	writeReports(t, newPath, map[string][]float64{
		"wall_us_per_op":          steady(10),    // better
		"allocs_per_op":           steady(100.5), // within 2%
		"virt_ops_per_s":          steady(120e3), // lower throughput: worse
		"virt_p99_us":             {10, 20, 30, 40, 50},
		"sim.events_per_op":       steady(9),
		"event.dispatches_per_op": steady(6),
	})
	var out bytes.Buffer
	if status := compareFiles(&out, oldPath, newPath); status != 1 {
		t.Errorf("status %d with a metric worse, want 1\n%s", status, out.String())
	}
	for metric, verdict := range map[string]string{
		"wall_us_per_op": "better", "allocs_per_op": "within bound", "virt_ops_per_s": "WORSE", "virt_p99_us": "unresolved",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row for %s in:\n%s", verdict, metric, out.String())
		}
	}
	if !strings.Contains(out.String(), "sim.events_per_op") || strings.Contains(out.String(), "event.dispatches_per_op") {
		t.Errorf("per-layer rows should list sim.events_per_op and not event.dispatches_per_op:\n%s", out.String())
	}
	out.Reset()
	if status := compareFiles(&out, oldPath, oldPath); status != 0 {
		t.Errorf("status %d comparing a file with itself\n%s", status, out.String())
	}
}

// TestValueCheck: the checker takes every version written and nothing
// else.
func TestValueCheck(t *testing.T) {
	p := newPopulation(7, tiny(specs[0]))
	v1 := p.value(3, p.newVersion(3))
	if err := p.check(3, v1); err != nil {
		t.Errorf("version 1: %v", err)
	}
	if err := p.check(3, p.value(3, 0)); err != nil {
		t.Errorf("version 0 after a rewrite: %v", err)
	}
	if p.check(4, v1) == nil {
		t.Error("a value of key 3 passed for key 4")
	}
	if p.check(3, p.value(3, 2)) == nil {
		t.Error("a version never handed out passed")
	}
	flipped := append([]byte(nil), v1...)
	flipped[len(flipped)-1] ^= 1
	if p.check(3, flipped) == nil {
		t.Error("a flipped body byte passed")
	}
	if p.check(3, v1[:len(v1)-1]) == nil {
		t.Error("a truncated value passed")
	}
}

// TestFrameScanner splits a stream of frames at every offset.
func TestFrameScanner(t *testing.T) {
	p := newPopulation(7, tiny(specs[0]))
	var stream []byte
	for i := uint32(0); i < 5; i++ {
		stream = append(stream, buildSet(p, int(i), 0, 100+i)...)
		stream = append(stream, buildGet(p.keys[i], 200+i)...)
	}
	for cut := 0; cut <= len(stream); cut++ {
		var s frameScanner
		var got []uint32
		note := func(h frameHdr) { got = append(got, h.opaque) }
		s.feed(stream[:cut], note)
		s.feed(stream[cut:], note)
		if len(got) != 10 || got[0] != 100 || got[1] != 200 || got[9] != 204 {
			t.Fatalf("cut at %d: opaques %v", cut, got)
		}
	}
}
