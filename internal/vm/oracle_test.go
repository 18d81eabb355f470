package vm

import (
	"errors"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
)

// findPutField returns (method, pc) of the first reference putfield of the
// named field in the program.
func findPutField(t *testing.T, p *bytecode.Program, field string) (*bytecode.Method, int) {
	t.Helper()
	for _, m := range p.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op == bytecode.OpPutField && m.Operand(pc).Name == field {
				return m, pc
			}
		}
	}
	t.Fatalf("no putfield %s in program", field)
	return nil, 0
}

// setVerdicts installs a copy of p's verdict table with verdict v at each
// of the pcs of m, one of p's methods.
func setVerdicts(p *bytecode.Program, m *bytecode.Method, v bytecode.Verdict, pcs ...int) {
	vt := p.Verdicts()
	rows := make([][]bytecode.Verdict, len(p.Methods()))
	for n, pm := range p.Methods() {
		rows[n] = make([]bytecode.Verdict, len(pm.Code))
		copy(rows[n], vt.Of(n))
		if pm == m {
			for _, pc := range pcs {
				rows[n][pc] = v
			}
		}
	}
	p.SetVerdicts(rows)
}

// TestOracleCatchesNonNullOverwrite injects an unsound pre-null elision at
// a store that dynamically overwrites a non-null reference and checks the
// oracle reports it with a precise site diagnostic.
func TestOracleCatchesNonNullOverwrite(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static void main() {
        N n = new N();
        n.next = new N();   // pre-null: genuinely elidable
        n.next = new N();   // overwrites non-null: elision would be unsound
    }
}
`, 0)
	m, _ := findPutField(t, p, "next")
	// Mark *every* next-store elided: the second execution must trip.
	var stores []int
	for i := range m.Code {
		if m.Code[i].Op == bytecode.OpPutField && m.Operand(i).Name == "next" {
			stores = append(stores, i)
		}
	}
	setVerdicts(p, m, bytecode.VerdictPreNull, stores...)
	_, err := New(p, Config{CheckElisions: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if sv.Method != m.QualifiedName() {
		t.Errorf("violation method = %s, want %s", sv.Method, m.QualifiedName())
	}
	if sv.Elide != satb.ElidePreNull || sv.Site != satb.FieldSite {
		t.Errorf("violation kind = %v/%v, want pre-null field", sv.Elide, sv.Site)
	}
	if !strings.Contains(sv.Reason, "non-null") {
		t.Errorf("reason = %q, want non-null overwrite", sv.Reason)
	}
	if sv.AllocSite == "" {
		t.Error("violation should carry the target's allocation site")
	}
}

// TestOracleCatchesEscapedTarget injects an elision at a pre-null store
// whose target has been published through a static: the slot is null, but
// the thread-locality claim is false.
func TestOracleCatchesEscapedTarget(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static N shared;
    static void main() {
        N n = new N();
        A.shared = n;       // n escapes
        n.next = new N();   // pre-null, but target is published
    }
}
`, 0)
	m, pc := findPutField(t, p, "next")
	setVerdicts(p, m, bytecode.VerdictPreNull, pc)
	_, err := New(p, Config{CheckElisions: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if !strings.Contains(sv.Reason, "escaped") {
		t.Errorf("reason = %q, want escape diagnostic", sv.Reason)
	}
}

// TestOracleCatchesCrossThreadStore publishes an object to a spawned
// thread; a pre-null elision on a store the second thread performs must be
// flagged even though the slot is null.
func TestOracleCatchesCrossThreadStore(t *testing.T) {
	p := compileSrc(t, `
class W {
    W next;
    void work() { this.next = new W(); }
}
class A {
    static void main() {
        W w = new W();
        spawn w.work();
        print(0);
    }
}
`, 0)
	m, pc := findPutField(t, p, "next")
	setVerdicts(p, m, bytecode.VerdictPreNull, pc)
	_, err := New(p, Config{CheckElisions: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if !strings.Contains(sv.Reason, "escaped") {
		t.Errorf("reason = %q, want escape diagnostic", sv.Reason)
	}
}

// TestOracleCleanOnAnalyzedProgram runs a genuinely analyzed program under
// the oracle: elisions must validate, and the oracle must actually check
// them.
func TestOracleCleanOnAnalyzedProgram(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static void main() {
        int k = 0;
        for (int i = 0; i < 50; i = i + 1) {
            N head = new N();
            head.next = new N();   // pre-null every iteration
            N[] arr = new N[4];
            for (int j = 0; j < 4; j = j + 1) arr[j] = new N();
            k = k + 1;
        }
        print(k);
    }
}
`, 100)
	if _, err := core.AnalyzeProgram(p, core.Options{Mode: core.ModeFieldArray, NullOrSame: true}); err != nil {
		t.Fatal(err)
	}
	res, err := New(p, Config{
		Barrier:            satb.ModeConditional,
		GC:                 GCSATB,
		TriggerEveryAllocs: 20,
		CheckInvariant:     true,
		CheckElisions:      true,
	}).Run()
	if err != nil {
		t.Fatalf("oracle flagged an analyzed program: %v", err)
	}
	if res.ElisionChecks == 0 {
		t.Error("oracle ran but validated no elided stores (no elisions happened?)")
	}
	if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
		t.Errorf("unsound sites: %v", s.UnsoundSites)
	}
}
