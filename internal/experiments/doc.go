// Package experiments contains one harness per measured result: the
// tables and figures of the paper's evaluation (§4), and the
// cluster-era experiments the repository has grown beyond them.
//
// registry.go enumerates them, once: each is a Spec - a name, a Doc,
// and a Run that takes a Scale (Smoke or Full, the only two parameter
// presets) and returns a Report of text, ordered metrics, and the
// conditions the run violated. An experiment's spec function sits in
// its own file with the floors it checks as constants beside it.
// cmd/ebbrt runs Specs by name; TestSpecs runs every one at smoke
// scale and compares the metrics with the committed BENCH_<name>.json.
// Neither names an experiment, so adding one is a function and a
// registry entry.
//
// Paper reproductions: Table 1 (Ebb dispatch), Figure 3 (memory
// allocation), Figures 4-6 (NetPIPE, memcached latency/throughput,
// multicore scaling), Figure 7 and Table 2 (the node.js-style runtime).
//
// Cluster experiments, each driving the sharded deployment in
// internal/cluster under the ETC workload from internal/load:
//
//   - ClusterScaling (scaling.go): aggregate achieved throughput vs
//     backend count; the keyspace shards by consistent hashing and each
//     shard is driven over its own connection pool.
//
//   - Availability (availability.go): a backend is killed (and
//     optionally revived) mid-run; the timeline reports detection
//     latency, throughput, and hit rate through the failure under R-way
//     replication.
//
//   - Elasticity (elasticity.go): a backend joins and another is
//     decommissioned mid-run, with and without the Migrator streaming
//     moved key shares; reports the hit-rate cliff the rebalancer
//     removes and the time to restore full replication.
//
//   - TextVsBinary (textproto.go): the same load driven over the ASCII
//     text protocol and the binary protocol against identical clusters;
//     reports what text-mode compatibility costs at cluster scale.
//
// The experiments run on the deterministic simulation kernel, so every
// number is exactly reproducible for a given seed.
package experiments
