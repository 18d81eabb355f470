package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestTransferImports pins the seam between the transfer functions and the
// engine that iterates them: transfer.go sees the program representation
// and the integer domain, and nothing a worklist, a budget or a deadline
// would need — so whatever checks or explains a verdict can reuse it
// without inheriting the fixed point.
func TestTransferImports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "transfer.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"satbelim/internal/bytecode": true,
		"satbelim/internal/intval":   true,
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("transfer.go imports %s; the transfer functions may depend only on bytecode and intval", path)
		}
	}
}

// TestNoMapsInTheFixedPoint keeps the analysis's per-method universe in
// slices: references, fields, callees and sites are numbers of the method or
// the program, so a table keyed by pc, argument or reference is a slice, and
// a map in non-test code means a private numbering has come back. The opt-in
// swap detector (rearrange.go) keeps its value-numbering maps.
func TestNoMapsInTheFixedPoint(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "rearrange.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
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
