package costs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

var (
	// provenance is the tag every constant's comment carries.
	provenance = regexp.MustCompile(`\b(calibrated|cited):|\bchosen\b`)
	// unitName is a unit at the end of a name (the package comment lists
	// them); unitWord is one stated in a comment instead, as "unit: ...",
	// so that a paper number quoted in a tag does not pass for one.
	unitName = regexp.MustCompile(`(Ns|NsPerByte|BitsPerSecond|Prob)$`)
	unitWord = regexp.MustCompile(`\bunit: \S`)
)

// TestEveryConstantIsTagged parses the table and fails on an exported
// constant without a provenance tag or without a unit in its name or
// comment, and on any exported variable or function: the package is
// constants only, so no run can change what the model assumes.
func TestEveryConstantIsTagged(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "costs.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			t.Errorf("%s: %s is not a constant", fset.Position(decl.Pos()), decl.(*ast.FuncDecl).Name)
			continue
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if !name.IsExported() {
					continue
				}
				pos := fset.Position(name.Pos())
				if gen.Tok != token.CONST {
					t.Errorf("%s: %s is a variable", pos, name)
					continue
				}
				consts++
				text := strings.Join([]string{vs.Doc.Text(), vs.Comment.Text()}, " ")
				if !provenance.MatchString(text) {
					t.Errorf("%s: %s has no calibrated:, cited: or chosen tag", pos, name)
				}
				if !unitName.MatchString(name.Name) && !unitWord.MatchString(text) {
					t.Errorf("%s: %s names no unit", pos, name)
				}
			}
		}
	}
	if consts == 0 {
		t.Fatal("no exported constants found")
	}
}
