package bytecode_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

func compile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	ast, err := minijava.Parse("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := minijava.Check("t.mj", ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// unlinked compiles src and drops the table codegen's Validate linked:
// re-adding a class does that.
func unlinked(t *testing.T, src string) *bytecode.Program {
	p := compile(t, src)
	p.AddClass(p.SortedClasses()[0])
	return p
}

func corpus() map[string]string {
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for seed := int64(1); seed <= 6; seed++ {
		srcs[fmt.Sprint("seed", seed)] = progen.Generate(seed, progen.CampaignConfig())
	}
	return srcs
}

// numbering is everything a table decides that does not point into the
// program it was linked from.
type numbering struct {
	Classes []string
	Methods []bytecode.MethodRef
	Fields  []bytecode.FieldSym
	Statics []bytecode.FieldRef
	Sizes   map[string]bytecode.ClassSym
}

func numberingOf(p *bytecode.Program) numbering {
	s := p.Symbols()
	n := numbering{Fields: s.Fields, Statics: s.Statics, Sizes: map[string]bytecode.ClassSym{}}
	for _, c := range s.Classes {
		n.Classes = append(n.Classes, c.Name)
		n.Sizes[c.Name] = *s.Class(c.Name)
	}
	for _, m := range s.Methods {
		n.Methods = append(n.Methods, m.Ref())
	}
	return n
}

// TestNumberingIsAFunctionOfDeclarations: a program, its clone — taken
// before and after the program was linked —, and its inlined form at any
// limit number their methods and fields alike, and each table resolves
// every name to its own program's method.
func TestNumberingIsAFunctionOfDeclarations(t *testing.T) {
	for name, src := range corpus() {
		p := compile(t, src)
		want := numberingOf(p)
		others := map[string]*bytecode.Program{"clone": p.Clone(), "clone of an unlinked program": unlinked(t, src).Clone(),
			"inlined at 25":   inline.Apply(p.Clone(), inline.Options{Limit: 25}).Program,
			"inlined at 1000": inline.Apply(p.Clone(), inline.Options{Limit: 1000}).Program}
		for what, q := range others {
			if got := numberingOf(q); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the %s numbers the program differently:\n got %+v\nwant %+v", name, what, got, want)
			}
			for i, m := range q.Methods() {
				if q.Method(m.Ref()) != m || q.Symbols().MethodNum(m.Ref()) != i {
					t.Errorf("%s: the %s resolves %s to method %d, not to its own method %d", name, what, m.Ref(), q.Symbols().MethodNum(m.Ref()), i)
				}
				if m == p.Methods()[i] {
					t.Errorf("%s: the %s shares method %s with the original", name, what, m.Ref())
				}
			}
		}
	}
}

// TestNumberingOrder: classes ascend by name, methods by class then name,
// field ids by qualified name with $elems first, and every declared field
// and method resolves to its number.
func TestNumberingOrder(t *testing.T) {
	for name, src := range corpus() {
		p := compile(t, src)
		s := p.Symbols()
		if !slices.IsSortedFunc(s.Classes, func(a, b *bytecode.Class) int { return cmp.Compare(a.Name, b.Name) }) {
			t.Errorf("%s: classes are not in name order", name)
		}
		if !slices.IsSortedFunc(s.Methods, func(a, b *bytecode.Method) int {
			return cmp.Compare(a.Class+"\x00"+a.Name, b.Class+"\x00"+b.Name)
		}) {
			t.Errorf("%s: methods are not in (class, name) order", name)
		}
		var names []string
		for id, f := range s.Fields {
			if f.ID != bytecode.FieldID(id) {
				t.Errorf("%s: field %d says it is field %d", name, id, f.ID)
			}
			names = append(names, f.Name)
		}
		if names[bytecode.ElemsField] != "$elems" || !slices.IsSorted(names) {
			t.Errorf("%s: field ids do not ascend with qualified names after $elems: %q", name, names)
		}
		declared := 0
		for _, c := range s.Classes {
			for _, f := range c.Fields {
				declared++
				ref := bytecode.FieldRef{Class: c.Name, Name: f.Name}
				if sym := s.Field(ref); sym == nil || sym.Ref != ref || sym.Name != ref.String() ||
					sym.Type != f.Type || sym.Static != f.Static || sym.IsRef != f.Type.IsRef() || p.FieldType(ref) != f.Type {
					t.Errorf("%s: %s resolves to %+v", name, ref, sym)
				}
			}
			for _, m := range c.Methods {
				if p.Method(m.Ref()) != m {
					t.Errorf("%s: %s does not resolve to itself", name, m.Ref())
				}
			}
		}
		if len(s.Fields) != declared+1 {
			t.Errorf("%s: %d ids for %d declared fields and $elems", name, len(s.Fields), declared)
		}
	}
}

// TestSlotsMatchDeclarationOrder: storage slots are what the heap's layout
// always computed by walking the classes in name order — an instance field's
// index among its class's instance fields, a static's among all statics —
// and every engine reads them off the table.
func TestSlotsMatchDeclarationOrder(t *testing.T) {
	for _, w := range workloads.All() {
		p := compile(t, w.Source)
		s := p.Symbols()
		var statics []bytecode.FieldRef
		for _, c := range p.SortedClasses() {
			n := 0
			for _, f := range c.Fields {
				ref := bytecode.FieldRef{Class: c.Name, Name: f.Name}
				if f.Static {
					if got := s.Field(ref).Slot; got != len(statics) {
						t.Errorf("%s: static %s in slot %d, want %d", w.Name, ref, got, len(statics))
					}
					statics = append(statics, ref)
					continue
				}
				if got := s.Field(ref).Slot; got != n {
					t.Errorf("%s: %s in slot %d, want %d", w.Name, ref, got, n)
				}
				n++
			}
			if got := s.Class(c.Name).NumFields; got != n {
				t.Errorf("%s: %s has %d instance fields, want %d", w.Name, c.Name, got, n)
			}
		}
		if !slices.Equal(s.Statics, statics) {
			t.Errorf("%s: statics %v, want %v", w.Name, s.Statics, statics)
		}
	}
}

// TestAddClassRelinks: a class added after a lookup is seen by the next
// one, and renumbers what sorts after it.
func TestAddClassRelinks(t *testing.T) {
	p := bytecode.NewProgram()
	mk := func(class string) *bytecode.Class {
		b := bytecode.NewBuilder(class, "m", true)
		b.Return()
		return &bytecode.Class{Name: class, Methods: []*bytecode.Method{b.Build()},
			Fields: []*bytecode.Field{{Name: "f", Type: bytecode.ClassType(class)}}}
	}
	p.AddClass(mk("B"))
	bf, am := bytecode.FieldRef{Class: "B", Name: "f"}, bytecode.MethodRef{Class: "A", Name: "m"}
	if p.Method(am) != nil || p.Symbols().Field(bf).ID != 1 || len(p.Methods()) != 1 {
		t.Fatalf("before: A.m resolves to %v, B.f has id %d, %d methods", p.Method(am), p.Symbols().Field(bf).ID, len(p.Methods()))
	}
	a := mk("A")
	p.AddClass(a)
	if p.Method(am) != a.Methods[0] || p.Methods()[0] != a.Methods[0] || p.SortedClasses()[0] != a {
		t.Errorf("after: A.m resolves to %v, method 0 is %v", p.Method(am), p.Methods()[0].Ref())
	}
	if id := p.Symbols().Field(bf).ID; id != 2 {
		t.Errorf("after: B.f has id %d, want 2 (A.f sorts before it)", id)
	}
}

// TestFirstUseIsRaceFree: the first lookups of a program nobody has linked
// yet may come from several goroutines at once (run under -race).
func TestFirstUseIsRaceFree(t *testing.T) {
	src := workloads.JBB().Source
	want := numberingOf(compile(t, src))
	for round := 0; round < 20; round++ {
		p := unlinked(t, src)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p.Method(p.Main) == nil || len(p.Methods()) != len(want.Methods) {
					t.Error("a concurrent first lookup missed main")
				}
				if got := numberingOf(p); !reflect.DeepEqual(got, want) {
					t.Error("a concurrent first link numbered the program differently")
				}
			}()
		}
		wg.Wait()
	}
}

// TestNoPrivateSymbolTables keeps the layers above this package from
// growing their own answer to "which number is this field or method": none
// of them keeps a map keyed by a symbolic reference or a method pointer,
// and the files that run per block visit or per heap access never resolve a
// name through the program at all. An instruction's operand is resolved
// once, by its method's Body: the verifier, the analysis, the site
// predicate, the pipeline, the heap and all three engines read the Body's
// numbers and never look an operand up by name.
func TestNoPrivateSymbolTables(t *testing.T) {
	noLookups := map[string]bool{"domain/transfer.go": true, "domain/refs.go": true, "heap/heap.go": true}
	readsBodies := map[string]bool{"core": true, "domain": true, "satb": true, "verifier": true, "pipeline": true, "heap": true, "vm": true}
	symbolic := map[string]bool{"FieldRef": true, "MethodRef": true, "bytecode.FieldRef": true,
		"bytecode.MethodRef": true, "*Method": true, "*bytecode.Method": true}
	seen := map[string]bool{}
	for _, pkg := range []string{"core", "domain", "heap", "satb", "verifier", "inline", "pipeline", "vm"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, "../"+pkg, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil || len(pkgs) != 1 {
			t.Fatalf("parsing ../%s: %d packages, %v", pkg, len(pkgs), err)
		}
		for _, files := range pkgs {
			for path, file := range files.Files {
				name := pkg + "/" + filepath.Base(path)
				seen[name] = true
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.MapType:
						if symbolic[types.ExprString(n.Key)] {
							t.Errorf("%s: %s is a private symbol table; index by the program's numbers instead", fset.Position(n.Pos()), types.ExprString(n))
						}
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							break
						}
						if noLookups[name] && (sel.Sel.Name == "Method" || sel.Sel.Name == "FieldType") {
							t.Errorf("%s: %s resolves a name where it should read a number resolved beforehand", fset.Position(n.Pos()), types.ExprString(n.Fun))
						}
						if readsBodies[pkg] && resolvesOperand(sel, n.Args) {
							t.Errorf("%s: %s resolves an instruction's operand; read its Body's FieldAt or CalleeAt", fset.Position(n.Pos()), types.ExprString(n))
						}
					}
					return true
				})
			}
		}
	}
	for name := range noLookups {
		if !seen[name] {
			t.Errorf("%s is gone; name the file that runs per visit or per access now", name)
		}
	}
}

// resolvesOperand reports a call that looks an instruction's symbolic
// operand up by name: X.Field(o.Field()) or X.MethodNum(o.Method()) for a
// pool entry o (or a field or method reference held by name, X.Field(r.Field)),
// or any FieldType call.
func resolvesOperand(sel *ast.SelectorExpr, args []ast.Expr) bool {
	switch sel.Sel.Name {
	case "FieldType":
		return true
	case "Field", "Method", "MethodNum":
		if len(args) != 1 {
			return false
		}
		arg := args[0]
		if call, ok := arg.(*ast.CallExpr); ok {
			arg = call.Fun
		}
		s, ok := arg.(*ast.SelectorExpr)
		return ok && (s.Sel.Name == "Field" || s.Sel.Name == "Method")
	}
	return false
}
