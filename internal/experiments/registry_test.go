package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// repoRoot is where the goldens are committed, relative to this package.
const repoRoot = "../.."

// TestSpecs is the experiment gate: every registered Spec runs once at
// smoke scale, must violate none of its conditions, and - if it reports
// metrics - must reproduce its committed golden byte for byte. The
// simulator is deterministic, so a difference is a change in
// virtual-time behaviour: regenerate the file with
// `go run ./cmd/ebbrt run -scale smoke <name>` and commit the moved
// numbers where a reviewer sees them.
func TestSpecs(t *testing.T) {
	for _, s := range Specs {
		t.Run(s.Name, func(t *testing.T) {
			// Every Spec boots its own kernel and shares nothing, and a
			// kernel runs one handler at a time, so this is what uses a
			// second CPU.
			t.Parallel()
			rep := s.Run(Smoke, nil)
			t.Log("\n" + rep.Text)
			for _, f := range rep.Failures {
				t.Error(f)
			}
			golden := GoldenFile(s.Name)
			want, err := os.ReadFile(filepath.Join(repoRoot, golden))
			if len(rep.Metrics) == 0 {
				if err == nil {
					t.Errorf("%s is committed but the Spec reports no metrics", golden)
				}
				return
			}
			if err != nil {
				t.Fatalf("Spec reports metrics but has no committed golden: %v", err)
			}
			if got := rep.JSON(); !bytes.Equal(got, want) {
				t.Errorf("metrics differ from the committed %s:\n got %s\nwant %s", golden, got, want)
			}
		})
	}
}

// TestRegistry holds the registry's shape: unique names, a Doc on every
// Spec, and no committed golden without a Spec (TestSpecs checks the
// other direction, which needs a run).
func TestRegistry(t *testing.T) {
	goldenOf := map[string]bool{}
	for _, s := range Specs {
		if goldenOf[GoldenFile(s.Name)] {
			t.Errorf("Spec name %q registered twice", s.Name)
		}
		goldenOf[GoldenFile(s.Name)] = true
		if s.Doc == "" {
			t.Errorf("Spec %q has no Doc", s.Name)
		}
	}
	committed, err := filepath.Glob(filepath.Join(repoRoot, GoldenFile("*")))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range committed {
		if !goldenOf[filepath.Base(g)] {
			t.Errorf("%s is committed but no Spec has that golden", filepath.Base(g))
		}
	}
}

// TestAvailabilityEventStreamReplays runs the audited kill/revive twice
// from the same seed and requires identical reports, audit_fnv64 - the
// hash of every event in order - included. Failing an evicted backend's
// in-flight operations in map order made this differ from the eviction
// on.
func TestAvailabilityEventStreamReplays(t *testing.T) {
	a, b := specAvailability(Smoke, nil).JSON(), specAvailability(Smoke, nil).JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different runs:\n first %s\nsecond %s", a, b)
	}
}
