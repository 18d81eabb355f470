package bytecode

import "testing"

// TestVerdictTableLifetime: the first Verdicts installs one empty table
// that every later call returns, SetVerdicts replaces it and rejects rows
// that do not fit the program, and AddClass drops it with the symbols.
func TestVerdictTableLifetime(t *testing.T) {
	p := buildTinyProgram()
	empty := p.Verdicts()
	if p.Verdicts() != empty || empty.Of(0) != nil || empty.At(0, 2) != VerdictNone {
		t.Fatal("the first table is not one empty table")
	}
	row := []Verdict{VerdictNone, VerdictNone, VerdictNullOrSame}
	set := p.SetVerdicts([][]Verdict{row})
	if p.Verdicts() != set || set == empty || set.At(0, 2) != VerdictNullOrSame {
		t.Error("SetVerdicts did not install its table")
	}
	for name, rows := range map[string][][]Verdict{
		"a row too many": {row, row},
		"a short row":    {row[:2]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetVerdicts accepted %s", name)
				}
			}()
			p.SetVerdicts(rows)
		}()
	}
	if p.Verdicts() != set {
		t.Error("a rejected table replaced the installed one")
	}
	p.AddClass(&Class{Name: "Extra"})
	if got := p.Verdicts(); got == set || got.At(0, 2) != VerdictNone {
		t.Error("AddClass kept the verdicts")
	}
}
