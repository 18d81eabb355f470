package domain

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// sourceFiles parses the package's non-test files.
func sourceFiles(t *testing.T, mode parser.Mode) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files
}

// TestDomainImports pins the seam between the domain and the engine that
// iterates it: the package sees the program representation, the integer
// domain and a few standard packages, and nothing a worklist, a budget, a
// deadline, a goroutine or a trace would need — so whatever checks or
// explains a verdict can import the domain without inheriting the fixed
// point.
func TestDomainImports(t *testing.T) {
	allowed := map[string]bool{
		"satbelim/internal/bytecode": true,
		"satbelim/internal/intval":   true,
		"cmp":                        true,
		"fmt":                        true,
		"maps":                       true,
		"math/bits":                  true,
		"slices":                     true,
		"strings":                    true,
	}
	fset, files := sourceFiles(t, parser.ImportsOnly)
	for _, f := range files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
				t.Errorf("%s imports %s; the domain may depend only on bytecode, intval and %s",
					fset.Position(imp.Pos()), path, "cmp, fmt, maps, math/bits, slices and strings")
			}
		}
	}
}

// TestNoExportedFields keeps the representation of the domain's values
// private: the State, Value, RefSet, tables and the judging pass's output
// are operated on through methods, so the engine cannot come to read a
// state row again. Config and MethodSummary are the exceptions: their
// fields are what they say.
func TestNoExportedFields(t *testing.T) {
	open := map[string]bool{"Config": true, "MethodSummary": true}
	fset, files := sourceFiles(t, 0)
	checked := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || open[ts.Name.Name] {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checked[ts.Name.Name] = true
			for _, fld := range st.Fields.List {
				names := fld.Names
				if len(names) == 0 { // embedded: the field is named by its type
					typ := fld.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						names = []*ast.Ident{id}
					} else {
						t.Errorf("%s: %s embeds a type from another package", fset.Position(fld.Pos()), ts.Name.Name)
					}
				}
				for _, id := range names {
					if id.IsExported() {
						t.Errorf("%s: %s exports field %s", fset.Position(id.Pos()), ts.Name.Name, id.Name)
					}
				}
			}
			return true
		})
	}
	for _, name := range []string{"State", "Value"} {
		if !checked[name] {
			t.Errorf("no struct type %s found to check", name)
		}
	}
}
