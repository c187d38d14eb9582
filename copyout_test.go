package ebbrt_test

import (
	"cmp"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// flatCopies is every call of IOBuf.CopyOut the non-test code may make,
// by file. A flat copy belongs to a cold path that wants one contiguous
// packet; the data path makes none, and the GPOS socket makes the copies
// its model charges for into recycled elements (docs/ARCHITECTURE.md,
// "Copy ledger"). Adding a line here is a design decision to argue in
// review.
var flatCopies = map[string]int{
	"internal/experiments/textproto.go": 1, // the demo transcript, as a string
}

func TestCopyOutCallSitesAreAllowlisted(t *testing.T) {
	checkCallSites(t, regexp.QuoteMeta(".CopyOut("), flatCopies, 1)
}

// TestAppendToCallSitesAreAllowlisted holds every stream parser to
// iobuf.Stream: AppendTo copies a chain onto a flat slice, which is how a
// parser reassembles by hand, so no non-test code outside internal/iobuf
// calls it.
func TestAppendToCallSitesAreAllowlisted(t *testing.T) {
	checkCallSites(t, regexp.QuoteMeta(".AppendTo("), nil, 0, "internal/iobuf")
}

// checkCallSites fails unless every non-test Go file outside bench/ and
// the skipped files and directories matches the regular expression needle exactly
// as often as allow says - more is a new site to argue for, fewer a line
// to shrink - and the total stays within budget.
func checkCallSites(t *testing.T, needle string, allow map[string]int, budget int, skip ...string) {
	t.Helper()
	re := regexp.MustCompile(needle)
	found := map[string]int{}
	forEachSource(t, skip, func(path string, src []byte) {
		if n := len(re.FindAllIndex(src, -1)); n > 0 {
			found[path] = n
		}
	})
	total := 0
	for path, n := range found {
		total += n
		if n > allow[path] {
			t.Errorf("%s matches %s %d times, allowlist has %d", path, needle, n, allow[path])
		}
	}
	for path, n := range allow {
		if found[path] < n {
			t.Errorf("%s matches %s %d times, allowlist still has %d: shrink the list", path, needle, found[path], n)
		}
	}
	if total > budget {
		t.Errorf("%d sites match %s, the budget is %d", total, needle, budget)
	}
}

// forEachSource calls fn with the slash path and the contents of every
// non-test Go file outside bench/, hidden directories and the skipped
// files and directories.
func forEachSource(t *testing.T, skip []string, fn func(path string, src []byte)) {
	t.Helper()
	overlay := buildOverlay(t)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." || slices.Contains(skip, path) {
				return filepath.SkipDir
			}
			return nil
		}
		if slices.Contains(skip, path) {
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(cmp.Or(overlay[abs], path))
		if err != nil {
			return err
		}
		fn(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildOverlay returns the file replacements of an -overlay flag in
// GOFLAGS, by absolute path, so a source check reads the files the build
// compiles. scripts/mutants.sh applies its mutants that way.
func buildOverlay(t *testing.T) map[string]string {
	t.Helper()
	var file string
	for _, f := range strings.Fields(os.Getenv("GOFLAGS")) {
		if v, ok := strings.CutPrefix(f, "-overlay="); ok {
			file = v
		}
	}
	if file == "" {
		return nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var o struct{ Replace map[string]string }
	if err := json.Unmarshal(data, &o); err != nil {
		t.Fatal(err)
	}
	return o.Replace
}
