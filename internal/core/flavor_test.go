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

func TestAllFlavorVerdictsCoverEveryFlavor(t *testing.T) {
	rows := AllFlavorVerdicts(flavorProgram())
	if len(rows) != len(satb.AllSpecs()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(satb.AllSpecs()))
	}
	for i, sp := range satb.AllSpecs() {
		if rows[i].Flavor != sp.Name {
			t.Errorf("row %d flavor = %q, want %q", i, rows[i].Flavor, sp.Name)
		}
		if rows[i].Kept+rows[i].Discarded != rows[i].Verdicts {
			t.Errorf("%s: kept %d + discarded %d != verdicts %d",
				rows[i].Flavor, rows[i].Kept, rows[i].Discarded, rows[i].Verdicts)
		}
	}
}
