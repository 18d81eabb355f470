package bytecode

import (
	"strings"
	"testing"
)

func TestTypePredicates(t *testing.T) {
	cases := []struct {
		typ      *Type
		isRef    bool
		isRefArr bool
		str      string
	}{
		{Void, false, false, "void"},
		{Int, false, false, "int"},
		{Bool, false, false, "boolean"},
		{ClassType("T"), true, false, "T"},
		{ArrayOf(Int), true, false, "int[]"},
		{ArrayOf(ClassType("T")), true, true, "T[]"},
		{ArrayOf(ArrayOf(ClassType("T"))), true, true, "T[][]"},
		{ArrayOf(ArrayOf(Int)), true, true, "int[][]"}, // arrays are refs, so int[][] holds refs
	}
	for _, c := range cases {
		if got := c.typ.IsRef(); got != c.isRef {
			t.Errorf("%s: IsRef = %v, want %v", c.str, got, c.isRef)
		}
		if got := c.typ.IsRefArray(); got != c.isRefArr {
			t.Errorf("%s: IsRefArray = %v, want %v", c.str, got, c.isRefArr)
		}
		if got := c.typ.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !ClassType("A").Equal(ClassType("A")) {
		t.Error("ClassType(A) should equal itself structurally")
	}
	if ClassType("A").Equal(ClassType("B")) {
		t.Error("distinct classes must not be equal")
	}
	if !ArrayOf(ClassType("A")).Equal(ArrayOf(ClassType("A"))) {
		t.Error("array types with equal elements must be equal")
	}
	if ArrayOf(Int).Equal(ArrayOf(Bool)) {
		t.Error("int[] must not equal boolean[]")
	}
	if Int.Equal(Bool) {
		t.Error("int must not equal boolean")
	}
	if Int.Equal(nil) {
		t.Error("non-nil must not equal nil")
	}
	var n *Type
	if !n.Equal(nil) {
		t.Error("nil pointer receiver should equal nil argument")
	}
}

func TestInstrPredicatesAndSize(t *testing.T) {
	br := Instr{Op: OpGoto, A: 3}
	if !br.IsBranch() || !br.IsTerminator() {
		t.Error("goto must be branch and terminator")
	}
	iff := Instr{Op: OpIfTrue, A: 3}
	if !iff.IsBranch() || iff.IsTerminator() {
		t.Error("iftrue is a branch but not a terminator")
	}
	ret := Instr{Op: OpReturn}
	if ret.IsBranch() || !ret.IsTerminator() {
		t.Error("return is a terminator but not a branch")
	}
	pf := Instr{Op: OpPutField}
	if pf.IsBranch() || pf.IsTerminator() {
		t.Error("putfield is neither")
	}
	if (&Instr{Op: OpDup}).Size() != 1 {
		t.Error("dup size")
	}
	if (&Instr{Op: OpConst}).Size() != 3 {
		t.Error("const size")
	}
	if (&Instr{Op: OpLoad}).Size() != 2 {
		t.Error("load size")
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpPutField}
	got := in.Annotated(&Pool{entries: []Operand{{Class: "T", Name: "f"}}}, VerdictPreNull)
	want := "putfield T.f  ; no-barrier"
	if got != want {
		t.Errorf("Annotated = %q, want %q", got, want)
	}
	// Without the pool, or past its end, the operand is its index.
	if in.String() != "putfield #0" {
		t.Errorf("putfield string = %q", in.String())
	}
	in2 := Instr{Op: OpGoto, A: 7}
	if in2.String() != "goto -> 7" {
		t.Errorf("goto string = %q", in2.String())
	}
}

// TestBuilderLabelsForwardAndBackward: several branches may await one
// label, and forward and backward branches resolve alike.
func TestBuilderLabelsForwardAndBackward(t *testing.T) {
	b := NewBuilder("T", "m", true)
	top, out := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.ConstBool(true)
	b.IfTrue(out) // pc 1
	b.ConstBool(false)
	b.IfFalse(out) // pc 3
	b.Goto(top)    // pc 4, backward
	b.Goto(out)    // pc 5
	b.Bind(out)
	b.Return()
	m := b.Build()
	for pc, want := range map[int]int64{1: 6, 3: 6, 4: 0, 5: 6} {
		if got := m.Code[pc].A; got != want {
			t.Errorf("branch at pc %d targets %d, want %d", pc, got, want)
		}
	}
	if len(m.Code) != 7 || cap(m.Code) != 7 {
		t.Errorf("code has length %d and capacity %d, want 7 and 7", len(m.Code), cap(m.Code))
	}
}

func TestBuilderUnresolvedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on a branch to an unbound label")
		}
	}()
	b := NewBuilder("T", "m", true)
	l := b.NewLabel()
	b.Goto(l)
	b.Goto(l)
	b.Build()
}

// TestBuilderLabels: one Builder builds method after method, each with its
// own labels and with its code copied out at its exact size.
func TestBuilderLabels(t *testing.T) {
	b := NewBuilder("T", "first", true)
	out := b.NewLabel()
	b.ConstBool(true)
	b.IfTrue(out)
	b.Bind(out)
	b.Return()
	first := b.Build()
	if len(first.Code) != 3 || cap(first.Code) != 3 || first.Code[1].A != 2 {
		t.Errorf("first: %s", Disassemble(first, nil))
	}

	b.Start("T", "second", true)
	if l := b.NewLabel(); l != 0 {
		t.Errorf("the second method's first label is %d, want 0", l)
	}
	b.Goto(0)
	b.Bind(0)
	b.Return()
	second := b.Build()
	if second.Name != "second" || len(second.Code) != 2 || second.Code[0].A != 1 {
		t.Errorf("second: %s", Disassemble(second, nil))
	}
	if first.Code[0].Op != OpConstBool || first.Code[1].A != 2 {
		t.Errorf("building the second method changed the first: %s", Disassemble(first, nil))
	}
}

func TestMethodArgTypesAndSize(t *testing.T) {
	b := NewBuilder("T", "m", false)
	b.DeclareSlot(ClassType("T")) // receiver
	b.AddParam(Int)
	b.AddParam(ArrayOf(ClassType("U")))
	b.Return()
	m := b.Build()
	if m.NumArgs() != 3 {
		t.Fatalf("NumArgs = %d, want 3", m.NumArgs())
	}
	if m.ArgType(0).Class != "T" {
		t.Error("arg 0 should be the receiver type")
	}
	if m.ArgType(1) != Int {
		t.Error("arg 1 should be int")
	}
	if !m.ArgType(2).IsRefArray() {
		t.Error("arg 2 should be a ref array")
	}
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1 (single return)", m.Size())
	}
}

func buildTinyProgram() *Program {
	p := NewProgram()
	cls := &Class{Name: "T", Fields: []*Field{
		{Name: "f", Type: ClassType("T")},
		{Name: "g", Type: Int, Static: true},
	}}
	b := NewBuilder("T", "main", true)
	b.New("T")
	local := b.DeclareSlot(ClassType("T"))
	b.Store(local)
	b.Return()
	cls.Methods = append(cls.Methods, b.Build())
	p.AddClass(cls)
	p.Main = MethodRef{Class: "T", Name: "main"}
	return p
}

func TestProgramResolutionAndValidate(t *testing.T) {
	p := buildTinyProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Method(MethodRef{Class: "T", Name: "main"}) == nil {
		t.Error("method T.main should resolve")
	}
	if p.Method(MethodRef{Class: "T", Name: "nope"}) != nil {
		t.Error("missing method should not resolve")
	}
	if ft := p.FieldType(FieldRef{Class: "T", Name: "f"}); ft == nil || ft.Class != "T" {
		t.Errorf("field T.f type = %v", ft)
	}
	if p.FieldType(FieldRef{Class: "X", Name: "f"}) != nil {
		t.Error("unknown class field should not resolve")
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := buildTinyProgram()
	m := p.Method(p.Main)
	m.Code = append(m.Code, Instr{Op: OpGoto, A: 99})
	if err := p.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range branch target")
	}
}

func TestValidateCatchesBadSlot(t *testing.T) {
	p := buildTinyProgram()
	m := p.Method(p.Main)
	m.Code = append([]Instr{{Op: OpLoad, A: 42}}, m.Code...)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range slot")
	}
}

func TestValidateCatchesUnresolvedField(t *testing.T) {
	p := buildTinyProgram()
	m := p.Method(p.Main)
	ref := int32(m.Pool.Len())
	m.Pool = m.Pool.Concat(&Pool{entries: []Operand{{Class: "T", Name: "zzz"}}})
	m.Code = append([]Instr{{Op: OpGetStatic, Ref: ref}}, m.Code...)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unresolved field T.zzz") {
		t.Fatalf("Validate = %v, want the unresolved field T.zzz", err)
	}
}

func TestValidateCatchesBadMain(t *testing.T) {
	p := buildTinyProgram()
	p.Main = MethodRef{Class: "T", Name: "missing"}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate should reject missing main")
	}
}

func TestDisassembleContainsOpcodes(t *testing.T) {
	p := buildTinyProgram()
	out := DisassembleProgram(p)
	for _, want := range []string{"static method T.main", "newinstance T", "store 0", "return"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestSortedClassesDeterministic(t *testing.T) {
	p := NewProgram()
	p.AddClass(&Class{Name: "B"})
	p.AddClass(&Class{Name: "A"})
	p.AddClass(&Class{Name: "C"})
	got := p.SortedClasses()
	if got[0].Name != "A" || got[1].Name != "B" || got[2].Name != "C" {
		t.Errorf("SortedClasses order wrong: %v %v %v", got[0].Name, got[1].Name, got[2].Name)
	}
}
