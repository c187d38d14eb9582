package ebbrt_test

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// peekSites is every place the non-test code of internal/cluster and
// internal/apps may read a node's liveness (.Node.Alive()) or reach into
// a backend's server (.Srv.) directly, by file, with the reason. A node
// of the system knows its own state and what arrives over the network:
// the client learns of a dead backend from its connections and the
// health monitor's evictions, the migrator from the ring and its retry
// timer. Only a checker outside the system - an experiment's Spec, a
// test - may look at every node at once. Adding a line here is a design
// decision to argue in review.
var peekSites = map[string]int{
	"internal/cluster/migrate.go": 2, // the migration stream scans its own backend's store, on that backend
}

func TestSystemSeesOnlyItsMessages(t *testing.T) {
	checkCallSites(t, `\.Node\.Alive\(\)|\.Srv\.`, peekSites, 2, allBut(t, "internal/cluster", "internal/apps")...)
}

// allBut lists, as checkCallSites' skip, every file and directory of the
// tree that neither lies in one of the kept directories nor holds one.
func allBut(t *testing.T, keep ...string) []string {
	t.Helper()
	var skip []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		path = filepath.ToSlash(path)
		for _, k := range keep {
			if path == k {
				return filepath.SkipDir
			}
			if strings.HasPrefix(k, path+"/") {
				return nil
			}
		}
		skip = append(skip, path)
		if d.IsDir() {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return skip
}
