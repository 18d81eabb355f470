package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestNoMapsInTheFixedPoint keeps the analysis's per-method universe in
// slices, in the engine and in the domain alike: references, fields,
// callees and sites are numbers of the method or the program, so a table
// keyed by pc, argument or reference is a slice, and a map in non-test code
// means a private numbering has come back. The opt-in swap detector
// (the domain's rearrange.go) keeps its value-numbering maps.
func TestNoMapsInTheFixedPoint(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../domain"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go") && !(dir == "../domain" && fi.Name() == "rearrange.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("%s: %d packages, want 1", dir, len(pkgs))
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if _, ok := n.(*ast.MapType); ok {
						t.Errorf("%s: a map type; number the key and use a slice", fset.Position(n.Pos()))
					}
					return true
				})
			}
		}
	}
}
