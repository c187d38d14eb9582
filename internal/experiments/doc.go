// Package experiments contains one harness per measured result: the
// tables and figures of the paper's evaluation (§4), and the
// cluster-era experiments the repository has grown beyond them.
//
// The package exports only its registry. registry.go enumerates the
// experiments, once: each is a Spec - a name, a Doc, and a Run that
// takes a Scale (Smoke or Full, the only two parameter presets) and
// returns a Report of text, ordered metrics, and the conditions the run
// violated. An experiment is its spec function, in its own file: the
// function holds its parameters (a pick between the two scales where
// they differ, constants where they do not), runs the experiment,
// renders its own Report and states the experiment's conditions as
// requires beside the floors they check. Unexported point runners exist
// only where two Specs share one. cmd/ebbrt runs Specs by name;
// TestSpecs runs every one at smoke scale, fails on any violated
// condition, and compares the metrics with the committed
// BENCH_<name>.json. Neither names an experiment, so adding one is a
// function and a registry entry, and no test re-runs an experiment to
// check what its Spec should: the tests named after one result (such as
// TestFigure7Shape) read TestSpecs' run and require that it evaluated
// the result's conditions and that each held.
//
// Paper reproductions: Table 1 (Ebb dispatch), Figure 3 (memory
// allocation), Figures 4-6 (NetPIPE, memcached latency/throughput,
// multicore scaling), Figure 7 and Table 2 (the node.js-style runtime).
//
// Cluster experiments, each driving the sharded deployment in
// internal/cluster under the ETC workload from internal/load:
//
//   - scaling (scaling.go): aggregate achieved throughput vs backend
//     count; the keyspace shards by consistent hashing and each shard is
//     driven over its own connection pool.
//
//   - availability (availability.go): a backend is killed (and at smoke
//     scale revived) mid-run; the timeline reports detection latency,
//     throughput, and hit rate through the failure under R-way
//     replication.
//
//   - elasticity, elasticity_killfirst (elasticity.go): a backend joins
//     and another is decommissioned mid-run, with and without the
//     Migrator streaming moved key shares; reports the hit-rate cliff
//     the rebalancer removes and the time to restore full replication.
//
//   - textproto (textproto.go): the same load driven over the ASCII text
//     protocol and the binary protocol against identical clusters;
//     reports what text-mode compatibility costs at cluster scale.
//
//   - hotkey, hotkey_r3 (hotkey.go), lossy, memp and frontend: the
//     client hot-key cache and write spreading, frame loss, bounded
//     stores, and the hosted frontend tier.
//
// The experiments run on the deterministic simulation kernel, so every
// number except Table 1's host-clock cycles is exactly reproducible for
// a given seed.
package experiments
