package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// spillSrc is a main whose stores are judged after pad extra allocation
// sites: each site names two abstract references, so with pad = 40 every
// object the stores touch but p is numbered 81 or above and its reference
// sets spill out of RefSet's inline word. The stores cover the analysis's
// set operations — strong and weak updates, a loop site's A → B renaming,
// a join of two sites, escapes through a static and a store — on sets
// above the word, below it and across it.
func spillSrc(pad int) string {
	var b strings.Builder
	b.WriteString(`
class C { C f; C g; }
class Main {
    static C shared;
    static void main() {
        C p = new C();
`)
	for i := range pad {
		fmt.Fprintf(&b, "        C pad%d = new C();\n", i)
	}
	b.WriteString(`        C a = new C();
        a.f = new C();
        a.f = new C();
        C b = new C();
        Main.shared = b;
        b.f = new C();
        C c = null;
        for (int i = 0; i < 3; i = i + 1) {
            C o = new C();
            o.f = c;
            o.g = new C();
            c = o;
            if (i == 1) { Main.shared = o; }
        }
        c.f = a;
        C d = null;
        int k = 3;
        if (k < 5) { d = new C(); } else { d = new C(); }
        d.f = a;
        p.g = d;
        d.g = p;
        Main.shared.g = p;
        d.f = b;
        a.g = new C();
        print(0);
    }
}
`)
	return b.String()
}

// TestRefSetSpillEndToEnd analyzes one method whose abstract references
// outnumber RefSet's inline word and runs it under the elision oracle: the
// spill path is exercised by an analysis, not only by unit calls. The
// padded method must earn the verdicts, store by store, of the same method
// without the padding, whose references all fit in the word, and each of
// its elisions must hold on the fused engine while a SATB collector marks.
func TestRefSetSpillEndToEnd(t *testing.T) {
	type judged struct {
		refs     int
		verdicts []bytecode.Verdict
		build    *pipeline.Build
	}
	judge := func(pad int) judged {
		b, err := pipeline.Compile("spill", spillSrc(pad), pipeline.Options{
			InlineLimit: 100, NoCache: true, Analysis: core.Options{Mode: core.ModeFieldArray},
		})
		if err != nil {
			t.Fatal(err)
		}
		for n, m := range b.Program.Methods() {
			if m.QualifiedName() != "Main.main" {
				continue
			}
			j := judged{refs: b.Report.Methods[n].AbstractRefs, build: b}
			for pc, in := range m.Code {
				if in.Op == bytecode.OpPutField || in.Op == bytecode.OpPutStatic {
					j.verdicts = append(j.verdicts, b.Program.Verdicts().At(n, pc))
				}
			}
			return j
		}
		t.Fatal("no Main.main")
		return judged{}
	}
	inline, spilled := judge(0), judge(40)
	if inline.refs >= 64 || spilled.refs <= 80 {
		t.Fatalf("abstract references: %d unpadded, %d padded; want < 64 and > 80", inline.refs, spilled.refs)
	}
	if !slices.Equal(inline.verdicts, spilled.verdicts) {
		t.Fatalf("store verdicts differ once references spill:\n  inline  %v\n  spilled %v", inline.verdicts, spilled.verdicts)
	}
	t.Logf("abstract references %d unpadded, %d padded; store verdicts %v", inline.refs, spilled.refs, spilled.verdicts)
	elided := 0
	for _, v := range spilled.verdicts {
		if v == bytecode.VerdictPreNull {
			elided++
		}
	}
	if elided < 4 || elided == len(spilled.verdicts) {
		t.Fatalf("%d of %d stores elided %v: the program no longer separates elided from kept stores", elided, len(spilled.verdicts), spilled.verdicts)
	}
	res, err := spilled.build.Run(vm.Config{
		Engine:             vm.EngineFused,
		Barrier:            satb.ModeConditional,
		GC:                 vm.GCSATB,
		TriggerEveryAllocs: 2,
		CheckInvariant:     true,
		CheckElisions:      true,
		MaxSteps:           1_000_000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 || s.ElidedExecs == 0 {
		t.Fatalf("elided executions %d, unsound sites %v", s.ElidedExecs, s.UnsoundSites)
	}
}
