package experiments

import "testing"

// TestElasticityStreamedBeatsBaseline is the acceptance check for the
// migration engine: over an identical workload and schedule, streaming
// the joining backend's key share keeps the post-join hit rate strictly
// above the miss-faulting baseline (which must show its cliff, so the
// comparison is not vacuous), and a streamed decommission leaves every
// key fully replicated where the baseline eviction abandons the
// victim's share.
func TestElasticityStreamedBeatsBaseline(t *testing.T) {
	t.Parallel()
	requireHeld(t, "elasticity",
		"pre-join throughput",
		"streamed join did not run a migration",
		"join share took",
		"post-join hit rate: streamed",
		"shows no miss-faulting cliff",
		"did not keep the cache warm",
		"streamed decommission never completed",
		"not fully replicated",
		"baseline eviction reports full replication",
		"post-decommission hit rate")
}

// TestElasticityRestoresRAfterPermanentLoss: with R=2 and the
// decommissioned backend killed first, re-replication from surviving
// replicas returns every key to exactly R live replicas within 100ms,
// and the kill window surfaces as failovers, never as misses.
func TestElasticityRestoresRAfterPermanentLoss(t *testing.T) {
	t.Parallel()
	requireHeld(t, "elasticity_killfirst",
		"streamed decommission never completed",
		"restore-R took",
		"live replicas after re-replication",
		"false misses across join + permanent loss")
}
