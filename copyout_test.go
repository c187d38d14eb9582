package ebbrt_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flatCopies is every call of IOBuf.CopyOut the non-test code may make,
// by file. A flat copy belongs either to a model that charges virtual
// time for it or to a cold path that wants one contiguous packet; the
// native data path makes none (docs/ARCHITECTURE.md, "Copy ledger").
// Adding a line here is a design decision to argue in review.
var flatCopies = map[string]int{
	"internal/gpos/gpos.go":             2, // read() and write(): the socket-buffer copies copyCost charges
	"internal/netstack/dhcp.go":         2, // offer and ack, once per lease
	"internal/netstack/icmp.go":         1, // echo: the reply is the request, edited
	"internal/experiments/textproto.go": 1, // the demo transcript, as a string
}

func TestCopyOutCallSitesAreAllowlisted(t *testing.T) {
	found := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(src, []byte(".CopyOut("))
		if n > 0 {
			found[filepath.ToSlash(path)] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for path, n := range found {
		total += n
		if n > flatCopies[path] {
			t.Errorf("%s calls CopyOut %d times, allowlist has %d", path, n, flatCopies[path])
		}
	}
	for path, n := range flatCopies {
		if found[path] < n {
			t.Errorf("%s calls CopyOut %d times, allowlist still has %d: shrink the list", path, found[path], n)
		}
	}
	if total > 6 {
		t.Errorf("%d CopyOut call sites, the budget is 6", total)
	}
}
