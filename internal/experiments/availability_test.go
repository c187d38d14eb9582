package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestAvailabilityFailover is the acceptance check for the
// fault-tolerant cluster: with R=2 replication on a 4-backend
// deployment, killing one backend mid-run is detected and evicted
// promptly, the failure window (kill to ring eviction) keeps >= 60 % of
// the pre-kill throughput, the rerouted ring >= 90 %, and no read
// misses throughout, since every key the dead backend held has a live
// replica.
func TestAvailabilityFailover(t *testing.T) {
	t.Parallel()
	requireHeld(t, "availability",
		"no eviction",
		"eviction latency",
		"false misses",
		"pre-kill throughput",
		"failure-window throughput",
		"recovered throughput")
}

// TestAvailabilityReviveRestores: a killed backend that comes back is
// restored to the ring by the health monitor within 50ms, and the run
// stays free of false misses across both transitions.
func TestAvailabilityReviveRestores(t *testing.T) {
	t.Parallel()
	requireHeld(t, "availability",
		"no restore after the revive",
		"restored to the ring at",
		"false misses")
}

// TestAvailabilityEventStreamReplays requires the audited kill/revive to
// replay the committed run event for event: the same event count and the
// same audit_fnv64, the hash of every event in order. Failing an evicted
// backend's in-flight operations in map order made this differ from run
// to run.
func TestAvailabilityEventStreamReplays(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile(filepath.Join(repoRoot, GoldenFile("availability")))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for _, m := range smokeReport(t, "availability").Metrics {
		got[m.Key] = m.Value
	}
	for _, key := range []string{"total_events", "audit_fnv64"} {
		v, err := json.Marshal(got[key])
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != string(want[key]) {
			t.Errorf("%s: replay %s, committed run %s", key, v, want[key])
		}
	}
}
