package verifier

import (
	"errors"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
)

// Error-path hardening: malformed bytecode — whether hand-assembled,
// mutated by fuzzing, or produced by a buggy transform — must surface as
// an *Error carrying the method name, never as a panic.

func TestVerifyRejectsBranchTargetOutOfRange(t *testing.T) {
	expectReject(t, "branch target 999 out of range", func(b *bytecode.Builder) {
		b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 999})
		b.Return()
	})
}

func TestVerifyRejectsNegativeBranchTarget(t *testing.T) {
	expectReject(t, "out of range", func(b *bytecode.Builder) {
		b.Emit(bytecode.Instr{Op: bytecode.OpIfTrue, A: -7})
		b.Return()
	})
}

func TestVerifyRejectsUnresolvedField(t *testing.T) {
	expectReject(t, "unresolved field", func(b *bytecode.Builder) {
		b.GetStatic(bytecode.FieldRef{Class: "Nope", Name: "ghost"})
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsUnresolvedInvoke(t *testing.T) {
	expectReject(t, "unresolved method", func(b *bytecode.Builder) {
		b.Invoke(bytecode.MethodRef{Class: "Nope", Name: "ghost"})
		b.Return()
	})
}

func TestVerifyRejectsBranchOnRef(t *testing.T) {
	expectReject(t, "iftrue", func(b *bytecode.Builder) {
		end := b.NewLabel()
		b.New("T")
		b.IfTrue(end)
		b.Bind(end)
		b.Return()
	})
}

func TestVerifyRejectsUnderflowAcrossBlocks(t *testing.T) {
	// The underflowing pop sits in its own block, reached by a branch:
	// exercises merge-then-simulate rather than straight-line checking.
	expectReject(t, "pop from empty stack", func(b *bytecode.Builder) {
		deep := b.NewLabel()
		b.ConstBool(true)
		b.IfTrue(deep)
		b.Return()
		b.Bind(deep)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

// TestVerifyPanicIsolated drives the verifier into an internal fault — a
// declared slot with no type, which the structural check accepts and the
// type check dereferences — and checks the recover guard converts it into
// an *Error instead of unwinding the caller (e.g. a parallel verify pool).
func TestVerifyPanicIsolated(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "bad", true)
	b.Load(b.DeclareSlot(nil)) // a typeless slot: invalid
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)

	err := Verify(p, m) // must not panic
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if ve.Method != "T.bad" {
		t.Errorf("error names method %q, want T.bad", ve.Method)
	}
	if !strings.Contains(ve.Msg, "panic") {
		t.Errorf("Msg = %q, want internal panic diagnostic", ve.Msg)
	}
}

// TestVerifyErrorsNameTheMethod asserts the Error type renders the
// method for every rejection shape (structural fault vs simulate failure).
func TestVerifyErrorsNameTheMethod(t *testing.T) {
	builders := []func(b *bytecode.Builder){
		func(b *bytecode.Builder) { b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 123}); b.Return() },
		func(b *bytecode.Builder) { b.Op(bytecode.OpPop); b.Return() },
	}
	for i, build := range builders {
		p := bytecode.NewProgram()
		cls := &bytecode.Class{Name: "T"}
		b := bytecode.NewBuilder("T", "bad", true)
		build(b)
		m := b.Build()
		cls.Methods = append(cls.Methods, m)
		p.AddClass(cls)
		err := Verify(p, m)
		if err == nil || !strings.Contains(err.Error(), "T.bad") {
			t.Errorf("case %d: error %v does not name the method", i, err)
		}
	}
}

// TestVerifyRejectsStaticInstanceMismatch: a static field is reached by the
// static opcodes and an instance field by the others. The first program is
// the one that used to verify, have its store annotated "; no-barrier" and
// then die in every engine with "heap: unknown field C.s"; the putstatic of
// an instance field silently lived outside the heap's layout.
func TestVerifyRejectsStaticInstanceMismatch(t *testing.T) {
	s := bytecode.FieldRef{Class: "C", Name: "s"}
	f := bytecode.FieldRef{Class: "C", Name: "f"}
	for _, tc := range []struct {
		want  string
		build func(b *bytecode.Builder)
	}{
		{"putfield of static field C.s", func(b *bytecode.Builder) { b.New("C"); b.New("C"); b.PutField(s) }},
		{"putstatic of instance field C.f", func(b *bytecode.Builder) { b.New("C"); b.PutStatic(f) }},
		{"getfield of static field C.s", func(b *bytecode.Builder) { b.New("C"); b.GetField(s); b.Op(bytecode.OpPop) }},
		{"getstatic of instance field C.f", func(b *bytecode.Builder) { b.GetStatic(f); b.Op(bytecode.OpPop) }},
	} {
		p := bytecode.NewProgram()
		c := bytecode.ClassType("C")
		b := bytecode.NewBuilder("C", "main", true)
		tc.build(b)
		b.Return()
		m := b.Build()
		p.AddClass(&bytecode.Class{Name: "C", Methods: []*bytecode.Method{m},
			Fields: []*bytecode.Field{{Name: "s", Type: c, Static: true}, {Name: "f", Type: c}}})
		p.Main = m.Ref()
		for what, err := range map[string]error{"Verify": Verify(p, m), "VerifyProgram": VerifyProgram(p), "Validate": p.Validate()} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s = %v, want a rejection containing %q", what, err, tc.want)
			}
		}
	}
}

// TestVerifyRejectsBadAllocationTypes: a newinstance of an undeclared class
// or with no type, and a newarray with no element type, used to verify; the
// first then failed in every engine with "heap: unknown class", the second
// crashed every engine. The structural check the verifier now shares with
// Validate rejects all three.
func TestVerifyRejectsBadAllocationTypes(t *testing.T) {
	for _, tc := range []struct {
		want string
		op   bytecode.Op
		o    bytecode.Operand
	}{
		{"bad newinstance type Ghost", bytecode.OpNewInstance, bytecode.Operand{Type: bytecode.ClassType("Ghost")}},
		{"bad newinstance type <nil-type>", bytecode.OpNewInstance, bytecode.Operand{}},
		{"newarray missing element type", bytecode.OpNewArray, bytecode.Operand{}},
	} {
		p := bytecode.NewProgram()
		b := bytecode.NewBuilder("T", "main", true)
		if tc.op == bytecode.OpNewArray {
			b.Const(1)
		}
		b.Emit(bytecode.Instr{Op: tc.op, Ref: b.Operand(tc.o)})
		b.Op(bytecode.OpPop)
		b.Return()
		m := b.Build()
		p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}})
		p.Main = m.Ref()
		for what, err := range map[string]error{"Verify": Verify(p, m), "VerifyProgram": VerifyProgram(p), "Validate": p.Validate()} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s = %v, want a rejection containing %q", what, err, tc.want)
			}
		}
	}
}
