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
	cp.Code[0].Verdict = VerdictPreNull
	cp.SlotTypes[0] = Bool
	if m.Code[0].A == 99 || m.Code[0].Verdict != VerdictNone {
		t.Error("clone must not share instruction storage")
	}
	if m.SlotTypes[0] != Int {
		t.Error("clone must not share slot types")
	}
}

func TestProgramCloneIsolatesMethods(t *testing.T) {
	p := buildTinyProgram()
	cp := p.Clone()
	if cp.Main != p.Main {
		t.Error("main ref must be preserved")
	}
	cm := cp.Method(p.Main)
	cm.Code[0].Verdict = VerdictPreNull
	cm.Code = append(cm.Code, Instr{Op: OpNop})
	om := p.Method(p.Main)
	if om.Code[0].Verdict != VerdictNone {
		t.Error("clone must not share method code")
	}
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
	if Op(9999).String() != "op(9999)" {
		t.Errorf("unknown op string = %q", Op(9999).String())
	}
	if OpTrap.String() != "trap" {
		t.Error("trap mnemonic")
	}
}

func TestInstrStringRearrangeAnnotation(t *testing.T) {
	in := Instr{Op: OpAAStore, Verdict: VerdictRearrange}
	if got := in.String(); got != "aastore  ; no-barrier(rearrange)" {
		t.Errorf("String = %q", got)
	}
	in2 := Instr{Op: OpAAStore, Verdict: VerdictNullOrSame}
	if got := in2.String(); got != "aastore  ; no-barrier(null-or-same)" {
		t.Errorf("String = %q", got)
	}
}
