package ebbrt_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMapRangesAreOrderFree holds the non-test code to one rule of
// determinism: Go randomises the order a range over a map visits its
// keys, so a loop whose effect depends on that order makes a run differ
// from the same run with the same seed. Every such loop outside bench/
// carries an "// order-free:" comment, on its line or the line above,
// that says why the order cannot matter (it sorts, or takes a minimum);
// one that cannot say it iterates something ordered instead. The loops
// are found by type, with go/types, so a range over a named map type or
// a map-valued expression counts too.
func TestMapRangesAreOrderFree(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset)
	if err != nil {
		t.Fatal(err)
	}
	imp := &moduleImporter{fset: fset, pkgs: pkgs, std: importer.Default()}
	var unmarked []string
	loops := 0
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		p, err := imp.check(dir)
		if err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := p.info.TypeOf(r.X).Underlying().(*types.Map); !isMap {
					return true
				}
				loops++
				if !orderFree(fset, f, r) {
					unmarked = append(unmarked, fset.Position(r.For).String())
				}
				return true
			})
		}
	}
	for _, at := range unmarked {
		t.Errorf("%s: range over a map without an // order-free: comment saying why its order cannot matter", at)
	}
	if loops == 0 {
		t.Fatal("found no range over a map: the walk saw no code")
	}
	t.Logf("%d ranges over maps, all order-free", loops)
}

// orderFree reports whether the loop carries an "// order-free:" comment
// with a reason, on its own line or the line above.
func orderFree(fset *token.FileSet, f *ast.File, r *ast.RangeStmt) bool {
	line := fset.Position(r.For).Line
	for _, g := range f.Comments {
		for _, c := range g.List {
			at := fset.Position(c.Slash).Line
			why, ok := strings.CutPrefix(c.Text, "// order-free:")
			if ok && strings.TrimSpace(why) != "" && (at == line || at == line-1) {
				return true
			}
		}
	}
	return false
}

// modulePackage is one non-test package of the module, parsed with the
// files the default build context selects, and once checked its types.
type modulePackage struct {
	path  string // import path
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// parseModule parses every non-test package outside bench/ and hidden or
// testdata directories, keyed by directory.
func parseModule(fset *token.FileSet) (map[string]*modulePackage, error) {
	pkgs := map[string]*modulePackage{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p == "bench" || p == "testdata" || strings.HasSuffix(p, "/testdata") || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := path.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.ParseComments)
		if err != nil {
			return err
		}
		dir = path.Clean(dir)
		if pkgs[dir] == nil {
			pkgs[dir] = &modulePackage{path: path.Join("ebbrt", dir)}
		}
		pkgs[dir].files = append(pkgs[dir].files, f)
		return nil
	})
	return pkgs, err
}

// moduleImporter type-checks the module's packages from the parsed
// source, each once, and takes everything else from the toolchain.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*modulePackage
	std  types.Importer
}

func (m *moduleImporter) Import(importPath string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(importPath, "ebbrt/")
	if importPath == "ebbrt" {
		dir, ok = ".", true
	}
	if !ok {
		return m.std.Import(importPath)
	}
	p, err := m.check(dir)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// check type-checks the package in dir, after what it imports.
func (m *moduleImporter) check(dir string) (*modulePackage, error) {
	p := m.pkgs[dir]
	if p == nil {
		return nil, fmt.Errorf("no package in %s", dir)
	}
	if p.pkg != nil {
		return p, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: m}).Check(p.path, m.fset, p.files, info)
	if err != nil {
		return nil, err
	}
	p.pkg, p.info = pkg, info
	return p, nil
}
