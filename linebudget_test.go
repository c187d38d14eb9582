package ebbrt_test

import (
	"bufio"
	"bytes"
	"maps"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lineBudgets is the ledger of non-test Go lines per package directory.
const lineBudgets = "docs/line_budgets.txt"

// TestPackagesKeepToTheirLineBudgets holds every package directory outside
// bench/ to its line in docs/line_budgets.txt, counted as wc -l counts its
// non-test Go files. Over the line fails, and so does more than 10 % under
// it, so that a deletion lowers the line with it; a package with no line,
// or a line with no package, fails too. Growth raises the line in the
// same change, with the reason in CHANGES.md.
func TestPackagesKeepToTheirLineBudgets(t *testing.T) {
	lines := map[string]int{}
	forEachSource(t, nil, func(p string, src []byte) {
		lines[path.Dir(p)] += bytes.Count(src, []byte("\n"))
	})
	f, err := os.Open(lineBudgets)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budgets := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: %q is not a directory and a line count", lineBudgets, sc.Text())
		}
		budgets[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dir := range slices.Sorted(maps.Keys(lines)) {
		n := lines[dir]
		total += n
		switch budget, ok := budgets[dir]; {
		case !ok:
			t.Errorf("%s: %d non-test lines and no line in %s", dir, n, lineBudgets)
		case n > budget:
			t.Errorf("%s: %d non-test lines, over its line of %d: raise it in %s and say why", dir, n, budget, lineBudgets)
		case n*10 < budget*9:
			t.Errorf("%s: %d non-test lines, more than 10 %% under its line of %d: lower it in %s", dir, n, budget, lineBudgets)
		}
	}
	for dir := range budgets {
		if _, ok := lines[dir]; !ok {
			t.Errorf("%s has a line in %s but no non-test Go file: take the line out", dir, lineBudgets)
		}
	}
	t.Logf("%d non-test lines in %d package directories", total, len(lines))
}
