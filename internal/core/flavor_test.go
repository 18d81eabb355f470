package core

import (
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/satb"
)

// flavorProgram hand-builds a program whose main method carries one
// verdict of each kind plus an unelided store.
func flavorProgram() *bytecode.Program {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T", Fields: []*bytecode.Field{{Name: "f", Type: bytecode.ClassType("T")}}}
	f := bytecode.FieldRef{Class: "T", Name: "f"}
	b := bytecode.NewBuilder("T", "main", true)
	b.PutField(f)
	b.Op(bytecode.OpAAStore)
	b.Op(bytecode.OpAAStore)
	b.PutField(f)
	b.Return()
	cls.Methods = append(cls.Methods, b.Build())
	p.AddClass(cls)
	p.Main = bytecode.MethodRef{Class: "T", Name: "main"}
	p.SetVerdicts([][]bytecode.Verdict{{bytecode.VerdictPreNull, bytecode.VerdictNullOrSame, bytecode.VerdictRearrange,
		bytecode.VerdictNone, bytecode.VerdictNone}})
	return p
}

func TestFlavorSiteVerdicts(t *testing.T) {
	p := flavorProgram()
	want := map[satb.BarrierMode]FlavorVerdicts{
		satb.ModeConditional: {Flavor: "conditional", Verdicts: 3, Kept: 3, Discarded: 0},
		satb.ModeYuasa:       {Flavor: "yuasa", Verdicts: 3, Kept: 3, Discarded: 0},
		satb.ModeDijkstra:    {Flavor: "dijkstra", Verdicts: 3, Kept: 0, Discarded: 3},
		satb.ModeHybrid:      {Flavor: "hybrid", Verdicts: 3, Kept: 1, Discarded: 2},
	}
	for mode, w := range want {
		got := FlavorSiteVerdicts(p, mode.Spec())
		if got != w {
			t.Errorf("%s: verdicts = %+v, want %+v", mode, got, w)
		}
	}
}

// TestAllFlavorVerdictsCoverEveryFlavor: every registered flavor, through
// FlavorSiteVerdicts as the report calls it, names itself and splits every
// verdict into kept or discarded.
func TestAllFlavorVerdictsCoverEveryFlavor(t *testing.T) {
	p := flavorProgram()
	for _, sp := range satb.AllSpecs() {
		fv := FlavorSiteVerdicts(p, sp)
		if fv.Flavor != sp.Name {
			t.Errorf("flavor = %q, want %q", fv.Flavor, sp.Name)
		}
		if fv.Kept+fv.Discarded != fv.Verdicts {
			t.Errorf("%s: kept %d + discarded %d != verdicts %d",
				fv.Flavor, fv.Kept, fv.Discarded, fv.Verdicts)
		}
	}
}
