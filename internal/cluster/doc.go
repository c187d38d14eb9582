// Package cluster implements the multi-backend memcached deployment of
// the paper's §3 heterogeneous model: a hosted frontend plus N native
// library-OS backends sharing one Ebb namespace, with the keyspace
// sharded across backends by consistent hashing.
//
// The package is organized around five cooperating pieces:
//
//   - Ring (ring.go): deterministic consistent hashing, 128 virtual
//     points per backend. Every node computes identical placement with
//     no coordination; LookupN yields a key's R distinct successors
//     (its replica set), and each membership change bumps an epoch so
//     migrations can diff exact before/after ownership.
//
//   - Cluster (cluster.go): boots the deployment over hosted.System and
//     tracks membership - live, evicted, draining, and decommissioned
//     backends - plus the dual-routing handoff window migrations open.
//
//   - Client (client.go): the cluster-aware client Ebb. Per-core
//     representatives own private connection pools to every backend
//     (submission never crosses cores, the paper's Ebb discipline
//     applied client-side). Writes go to all R replicas and ack on a
//     majority quorum; reads try the primary and fail over across the
//     replica set on miss or network error, healing stale replicas by
//     read repair. Failures surface as StatusNetworkError, never as
//     false misses.
//
//   - HealthMonitor (health.go): messenger-driven heartbeats from the
//     frontend; a backend missing three consecutive 5ms beats is
//     evicted from the ring, kept on probation over fresh-connection
//     probes, and restored after two answered beats. Decommissioned
//     backends are never restored.
//
//   - Migrator (migrate.go): the rebalancer. PlanMigration diffs an old
//     ring against the new one into exact MoveRanges; each range is
//     streamed from a live replica to its gaining owner through the
//     memcached binary protocol itself (snapshot Store.Scan, pipelined
//     stamped quiet SETs and tombstone Deletes, a Noop fence), with the
//     client dual-routing reads and writes until the range cuts over,
//     and writes issued before the window opened re-sent to the new
//     owners. Join streams a newcomer's share
//     so it arrives warm; Decommission drains a live backend or
//     re-replicates a dead one back to R.
//
// Each piece knows its own node's state and what arrives over the
// network, as EbbRT's frontend and backends do: no non-test code here
// reads another node's store or liveness (the root
// TestSystemSeesOnlyItsMessages holds that). Only a checker outside the
// system, a Spec or a test, looks at every node; Cluster.ShardOwners
// tells it which stores own a key, and HotKeyOptions.OnHit which hits
// to judge.
//
// docs/ARCHITECTURE.md diagrams the replication, failure-detection, and
// migration flows end to end; docs/PROTOCOL.md specifies the wire
// protocol the data path and migration stream speak.
package cluster
