package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
			// second CPU. table1 alone times the host's clock: it runs
			// before the others start, with no Spec beside it.
			if s.Name != "table1" {
				t.Parallel()
			}
			rep := s.Run(Smoke, nil)
			smokeRuns.store(s.Name, rep)
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

// smokeRuns holds the latest smoke Report of each Spec, so a test of
// one experiment's conditions reads the run TestSpecs made instead of
// running the experiment again.
var smokeRuns = &runCache{reports: map[string]Report{}}

type runCache struct {
	sync.Mutex
	reports map[string]Report
}

func (m *runCache) store(name string, rep Report) {
	m.Lock()
	defer m.Unlock()
	m.reports[name] = rep
}

// smokeReport returns the latest smoke Report of the Spec called name,
// running it first if nothing has. Tests that call it are parallel, so
// they start once TestSpecs - which is not - has finished every run.
func smokeReport(t *testing.T, name string) Report {
	t.Helper()
	smokeRuns.Lock()
	defer smokeRuns.Unlock()
	if rep, ok := smokeRuns.reports[name]; ok {
		return rep
	}
	for _, s := range Specs {
		if s.Name == name {
			rep := s.Run(Smoke, nil)
			smokeRuns.reports[name] = rep
			return rep
		}
	}
	t.Fatalf("no Spec named %s", name)
	return Report{}
}

// requireHeld fails t unless the smoke run of the Spec called name
// evaluated, for each of conds, a condition whose format contains it,
// and every such condition held.
func requireHeld(t *testing.T, name string, conds ...string) {
	t.Helper()
	rep := smokeReport(t, name)
	for _, want := range conds {
		n := 0
		for _, c := range rep.conditions {
			if !strings.Contains(c.format, want) {
				continue
			}
			n++
			if !c.held {
				t.Errorf("%s: condition %q failed; failures: %q", name, c.format, rep.Failures)
			}
		}
		if n == 0 {
			t.Errorf("%s evaluates no condition matching %q", name, want)
		}
	}
}

// registryAPI is everything the package may export. An experiment's
// parameters, results and rendering live inside its Spec function, so
// an exported Options, Result or Format name is an experiment growing a
// second surface beside the registry.
var registryAPI = map[string]bool{
	"Scale": true, "Smoke": true, "Full": true,
	"Metric": true, "Report": true, "Report.JSON": true,
	"GoldenFile": true, "Spec": true, "Specs": true,
}

// TestRegistry holds the registry's shape: unique names, a Doc on every
// Spec, no committed golden without a Spec (TestSpecs checks the other
// direction, which needs a run), and no exported name in the package's
// non-test files beyond registryAPI.
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
	for _, name := range exportedNames(t) {
		if !registryAPI[name] {
			t.Errorf("%s is exported: only the registry may be (fold it into its Spec)", name)
		}
	}
}

// exportedNames lists the package's exported top-level names, and its
// exported methods on exported types as Type.Method, from its non-test
// source files.
func exportedNames(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					name = id.Name + "." + name
				}
				if d.Name.IsExported() {
					names = append(names, name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names = append(names, sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								names = append(names, id.Name)
							}
						}
					}
				}
			}
		}
	}
	return names
}
