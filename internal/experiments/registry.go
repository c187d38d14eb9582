package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"ebbrt/internal/audit"
	"ebbrt/internal/testbed"
)

// Scale selects one of a Spec's two parameter presets.
type Scale int

const (
	// Smoke is the preset TestSpecs runs and the committed
	// BENCH_<name>.json goldens record.
	Smoke Scale = iota
	// Full is the experiment's own defaults: the numbers README quotes.
	Full
)

// Metric is one named value of a Report. A Spec emits its metrics in a
// fixed order, which is the key order of its golden file.
type Metric struct {
	Key   string
	Value any
}

// Report is what one run of a Spec produced: the tables a person reads,
// the numbers the golden pins, and every condition the run violated.
type Report struct {
	Text     string
	Metrics  []Metric
	Failures []string
	// conditions is every condition the run evaluated, in order, so a
	// test can tell that a Spec still checks what it should.
	conditions []condition
}

// condition is one evaluated require: its format, which names it, and
// whether it held.
type condition struct {
	format string
	held   bool
}

func (r *Report) metric(key string, v any) {
	r.Metrics = append(r.Metrics, Metric{key, v})
}

// require records a failure unless ok holds.
func (r *Report) require(ok bool, format string, args ...any) {
	r.conditions = append(r.conditions, condition{format, ok})
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// JSON renders the metrics as the BENCH_<name>.json golden: one
// indented object, keys in emission order, closed by "pass". Values are
// encoded by encoding/json, so a float prints the shortest digits that
// round-trip and a moved number always moves the file.
func (r Report) JSON() []byte {
	lines := make([]string, 0, len(r.Metrics)+1)
	for _, m := range append(slices.Clone(r.Metrics), Metric{"pass", len(r.Failures) == 0}) {
		v, err := json.Marshal(m.Value)
		if err != nil {
			panic(fmt.Sprintf("experiments: metric %s: %v", m.Key, err))
		}
		lines = append(lines, fmt.Sprintf("  %q: %s", m.Key, v))
	}
	return []byte("{\n" + strings.Join(lines, ",\n") + "\n}\n")
}

// GoldenFile names the committed report of the Spec called name,
// relative to the repository root.
func GoldenFile(name string) string { return "BENCH_" + name + ".json" }

// Spec is one registered experiment. Run executes it at a scale and
// reports; log, when non-nil, receives the run's audit events if the
// experiment emits any.
type Spec struct {
	Name string
	Doc  string
	Run  func(s Scale, log *audit.Log) Report
}

// ratio is a/b, or 0 when b is 0 (a run that completed nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Specs is every experiment the repository can regenerate, in the order
// `ebbrt list` prints and `ebbrt run all` runs them: the paper's tables
// and figures, their documented ablations, then the cluster
// experiments. It is the only place experiments are enumerated; adding
// one is a function and an entry here.
var Specs = []Spec{
	{"table1", "Table 1: object dispatch cost, cycles per 1000 invocations on this host's clock (paper: Inline 1052, No Inline 4047, Virtual 5038, Inline Ebb 1448; hosted ~19x native)", specTable1},
	{"figure3", "Figure 3: cycles per ten 8B alloc/free pairs vs cores, queueing model (paper: EbbRT linear to 24 cores; glibc 3.8x EbbRT at 24; jemalloc linear, 42% slower)", specFigure3},
	{"figure4", "Figure 4: NetPIPE goodput vs message size, then the zero-copy ablation (paper: 64B one-way 9.7us EbbRT vs 15.9us Linux; 4Gbps at 64kB vs 384kB)", specFigure4},
	{"figure5", "Figure 5: memcached latency vs throughput, one core, ETC workload (paper @500us p99 SLA: EbbRT +58% vs Linux VM, +11.7% vs native)",
		memcachedSpec(1, true, ebbrtBeatsLinuxAtSLA, curve{kind: testbed.EbbRT}, curve{kind: testbed.LinuxVM}, curve{kind: testbed.LinuxNative}, curve{kind: testbed.OSv})},
	{"figure5_nopolling", "ablation of Figure 5: EbbRT with and without the driver's adaptive polling",
		memcachedSpec(1, false, nil, curve{kind: testbed.EbbRT}, curve{kind: testbed.EbbRT, label: "EbbRT no-poll", noPolling: true})},
	{"figure6", "Figure 6: memcached latency vs throughput, four cores (paper @500us p99 SLA: EbbRT +58% vs Linux VM, -5% vs native)",
		memcachedSpec(4, false, nil, curve{kind: testbed.EbbRT}, curve{kind: testbed.LinuxVM}, curve{kind: testbed.LinuxNative})},
	{"figure6_locked", "ablation of Figure 6: EbbRT over the RCU store and over a single-lock store",
		memcachedSpec(4, false, rcuBeatsLocked, curve{kind: testbed.EbbRT}, curve{kind: testbed.EbbRT, label: "EbbRT locked", locked: true})},
	{"figure7", "Figure 7: V8 suite scores normalized to Linux (paper: EbbRT wins all; overall +4.09%; Splay +13.9%)", specFigure7},
	{"table2", "Table 2: node.js webserver latency under closed-loop wrk load (paper: EbbRT 90.54/123.00us, Linux 112.83/199.00us mean/p99)", specTable2},
	{"scaling", "client-Ebb demo, then aggregate throughput vs backend count under sharded ETC load", specScaling},
	{"availability", "a backend killed (smoke: and revived) under R=2 load: detection latency, throughput and hit rate through the failure, audited", specAvailability},
	{"elasticity", "a backend joins and another is drained mid-run, streamed migration vs the miss-faulting baseline", elasticitySpec(3, 1, false)},
	{"elasticity_killfirst", "elasticity at 4 backends, R=2, with the decommissioned backend killed first: re-replication from the survivors", elasticitySpec(4, 2, true)},
	{"textproto", "a byte-exact ASCII session against a cluster backend, then text vs binary throughput at equal load", specTextProto},
	{"hotkey", "skewed ETC swept over backend counts with the client hot-key cache off and on, under a rogue writer", specHotKey},
	{"hotkey_r3", "the hot-key fix at R=3: replica-coherent cache plus salted write spreading vs the unfixed baseline", specReplicatedHotKey},
	{"lossy", "frame loss at the switch: the self-tuning TCP data path vs the fixed 200ms RTO", specLossy},
	{"memp", "bounded stores under a dataset twice their budget: LRU vs FIFO, the memory bound, the expiry probe", specMemoryPressure},
	{"frontend", "the hosted tier's ceiling, then N frontends x M backends with batched GETQ rounds vs the per-op spine", specFrontend},
}

// pick returns the preset for the scale.
func pick[T any](s Scale, smoke, full T) T {
	if s == Smoke {
		return smoke
	}
	return full
}
