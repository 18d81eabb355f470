package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/domain"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// compileOnly runs the front end over src: the field table reads class
// declarations only, so no inlining or verification is needed.
func compileOnly(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	ast, err := minijava.Parse("fields.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := minijava.Check("fields.mj", ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFieldTableNumbering: the field ids the analysis speaks are a function
// of the program — the program's clone numbers them alike —, $elems is id
// 0, ids ascend with qualified names, every declared field has one, and a
// class's reference-field list is its instance reference fields in id
// order.
func TestFieldTableNumbering(t *testing.T) {
	var srcs []string
	for _, w := range workloads.All() {
		srcs = append(srcs, w.Source)
	}
	for seed := int64(0); seed < 6; seed++ {
		srcs = append(srcs, progen.Generate(seed, progen.CampaignConfig()))
	}
	for i, src := range srcs {
		p := compileOnly(t, src)
		ft := p.Symbols()
		if again := p.Clone().Symbols(); !reflect.DeepEqual(ft.Fields, again.Fields) {
			t.Fatalf("source %d: a program and its clone number fields differently:\n%+v\n%+v", i, ft.Fields, again.Fields)
		}
		var names []string
		for id, f := range ft.Fields {
			if f.ID != bytecode.FieldID(id) {
				t.Errorf("source %d: field %d says it is field %d", i, id, f.ID)
			}
			names = append(names, f.Name)
		}
		if names[bytecode.ElemsField] != "$elems" {
			t.Errorf("source %d: id %d is %q, want $elems", i, bytecode.ElemsField, names[bytecode.ElemsField])
		}
		if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
			t.Errorf("source %d: names do not strictly ascend with ids: %q", i, names)
		}
		declared := 0
		for _, c := range p.SortedClasses() {
			var refFields []bytecode.FieldID
			for _, f := range c.Fields {
				declared++
				ref := bytecode.FieldRef{Class: c.Name, Name: f.Name}
				sym := ft.Field(ref)
				if sym == nil || sym.Name != ref.String() {
					t.Errorf("source %d: %s resolves to %+v", i, ref, sym)
					continue
				}
				if !f.Static && f.Type.IsRef() {
					refFields = append(refFields, sym.ID)
				}
			}
			slices.Sort(refFields)
			if got := ft.RefFieldsOf(bytecode.ClassType(c.Name)); !slices.Equal(got, refFields) {
				t.Errorf("source %d: reference fields of %s = %v, want %v", i, c.Name, got, refFields)
			}
		}
		if len(names) != declared+1 {
			t.Errorf("source %d: %d ids for %d declared fields and $elems", i, len(names), declared)
		}
	}
}

// TestRefFieldsOfType: what a summary can say about an argument depends on
// its type alone.
func TestRefFieldsOfType(t *testing.T) {
	p := compileOnly(t, `
class T { int v; T a; static T s; T[] b; int[] c; }
class M { static void main() { print(0); } }`)
	ft := p.Symbols()
	id := func(name string) bytecode.FieldID { return ft.Field(bytecode.FieldRef{Class: "T", Name: name}).ID }
	tt := bytecode.ClassType("T")
	for _, tc := range []struct {
		typ  *bytecode.Type
		want []bytecode.FieldID
	}{
		{tt, []bytecode.FieldID{id("a"), id("b"), id("c")}},
		{bytecode.ArrayOf(tt), []bytecode.FieldID{bytecode.ElemsField}},
		{bytecode.ArrayOf(bytecode.Int), nil},
		{bytecode.ClassType("M"), nil},
		{bytecode.ClassType("Undeclared"), nil},
		{bytecode.Int, nil},
		{nil, nil},
	} {
		if got := ft.RefFieldsOf(tc.typ); !slices.Equal(got, tc.want) {
			t.Errorf("RefFieldsOf(%s) = %v, want %v", tc.typ, got, tc.want)
		}
	}
}

// TestDirtyFieldEnumerationAllocatesNothing: what the invoke transfer
// function does per summarized argument on every block visit — walk the
// argument type's reference fields and ask the summary about each — is a
// walk over two precomputed id lists.
func TestDirtyFieldEnumerationAllocatesNothing(t *testing.T) {
	p := compileOnly(t, `
class T { T a; T b; T c; void touch(T[] ts) { this.b = this; ts[0] = this; } }
class M { static void main() { T t = new T(); t.touch(new T[1]); } }`)
	ft := p.Symbols()
	callee := p.Method(bytecode.MethodRef{Class: "T", Name: "touch"})
	sum := domain.OptimisticSummary(ft, callee)
	sum.ArgPreNullFields[0] = sum.ArgPreNullFields[0][:1]
	dirty := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < callee.NumArgs(); i++ {
			for _, f := range ft.RefFieldsOf(callee.ArgType(i)) {
				if !sum.PreNull(i, f) {
					dirty++
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("enumerating an argument's dirty fields allocates %.0f objects a call", allocs)
	}
	if dirty == 0 {
		t.Error("the walk found no dirty field: the test measures nothing")
	}
}

// TestUndeclaredFieldOperand: a field operand outside the table is the
// verifier's to reject; the analysis reports it instead of guessing an id,
// and a summary of such a method is the worst case.
func TestUndeclaredFieldOperand(t *testing.T) {
	p := bytecode.NewProgram()
	b := bytecode.NewBuilder("T", "m", true)
	b.AddParam(bytecode.ClassType("T"))
	b.Null()
	b.GetField(bytecode.FieldRef{Class: "T", Name: "ghost"})
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}})
	opts := Options{Mode: ModeFieldArray}
	px := newProgramIndex(p, opts)
	if _, err := px.of(0); err == nil {
		t.Fatal("indexing a method with an undeclared field operand succeeded")
	}
	if _, err := AnalyzeProgram(p, opts); err == nil {
		t.Error("AnalyzeProgram accepted an undeclared field operand")
	}
	if sum := summarizeMethod(context.Background(), px, newWorkspace(), m, 0, opts, nil); !sum.ArgCompromised[0] {
		t.Errorf("summary of an unindexable method = %+v, want the worst case", sum)
	}
}
