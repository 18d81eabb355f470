package bytecode

import "testing"

func TestMethodCloneIsDeep(t *testing.T) {
	b := NewBuilder("T", "m", true)
	slot := b.DeclareSlot(Int)
	b.Const(1)
	b.Store(slot)
	b.Return()
	m := b.Build()

	cp := m.Clone()
	cp.Code[0].A = 99
	cp.SlotTypes[0] = Bool
	if m.Code[0].A == 99 {
		t.Error("clone must not share instruction storage")
	}
	if m.SlotTypes[0] != Int {
		t.Error("clone must not share slot types")
	}
}

// TestProgramCloneIsolatesMethods: a Clone has its own code and class map,
// starts with no verdicts, and installing a table on it leaves the
// original's.
func TestProgramCloneIsolatesMethods(t *testing.T) {
	p := buildTinyProgram()
	orig := p.SetVerdicts([][]Verdict{{VerdictPreNull, VerdictNone, VerdictNone}})
	cp := p.Clone()
	if cp.Main != p.Main {
		t.Error("main ref must be preserved")
	}
	if got := cp.Verdicts(); got == orig || got.At(0, 0) != VerdictNone {
		t.Error("a Clone starts with its original's verdicts")
	}
	cp.SetVerdicts([][]Verdict{{VerdictRearrange, VerdictNone, VerdictNone}})
	if p.Verdicts() != orig || orig.At(0, 0) != VerdictPreNull {
		t.Error("installing verdicts on the clone changed the original's")
	}
	cm := cp.Method(p.Main)
	cm.Code = append(cm.Code, Instr{Op: OpNop})
	om := p.Method(p.Main)
	if len(om.Code) == len(cm.Code) {
		t.Error("appending to the clone must not grow the original")
	}
	// Field descriptors may be shared (immutable), but the class lists
	// must be distinct.
	cp.AddClass(&Class{Name: "Extra"})
	if p.Class("Extra") != nil {
		t.Error("clone must not share the class map")
	}
}

func TestOpStringUnknown(t *testing.T) {
	if Op(199).String() != "op(199)" {
		t.Errorf("unknown op string = %q", Op(199).String())
	}
	if OpTrap.String() != "trap" {
		t.Error("trap mnemonic")
	}
}

func TestInstrStringRearrangeAnnotation(t *testing.T) {
	in := Instr{Op: OpAAStore}
	if got := in.Annotated(nil, VerdictRearrange); got != "aastore  ; no-barrier(rearrange)" {
		t.Errorf("Annotated = %q", got)
	}
	if got := in.Annotated(nil, VerdictNullOrSame); got != "aastore  ; no-barrier(null-or-same)" {
		t.Errorf("Annotated = %q", got)
	}
	if got := in.String(); got != "aastore" {
		t.Errorf("String = %q", got)
	}
}
