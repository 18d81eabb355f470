package core_test

// End-to-end tests for the R_id/A → R_id/B demotion (paper §3.2): when an
// allocation site re-executes in a loop, the previous iteration's object
// must lose the unique A name, so stores through a loop-carried alias get
// weak-update semantics and keep their barriers. The renameAlloc unit
// tests in state_test.go cover the σ-transfer mechanics; these tests pin
// the observable analysis decisions. TestLoopAllocDemotionLimitsElision
// is the semantic killer of the skip-b-demotion mutant (internal/mutants),
// which deletes the demotion and reopens the hole it closes.

import (
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// demotionSrc allocates in a loop and stores through prev, which on every
// iteration ≥ 2 points at the *previous* execution of the site — whose f
// field is non-null. Only the fresh-object store `o.f = new C();` is
// legally elidable (1 of the 2 field sites). The prev.f store precedes
// o.f so that, were the demotion skipped, σ for the stale A name would
// still hold the fresh-allocation null default at the judgment point.
const demotionSrc = `
class C { C f; }
class Main {
    static void main() {
        C prev = null;
        for (int i = 0; i < 3; i = i + 1) {
            C o = new C();
            if (prev != null) { prev.f = new C(); }
            o.f = new C();
            prev = o;
        }
        print(0);
    }
}
`

func compileDemotion(t *testing.T, analysis core.Options) *pipeline.Build {
	t.Helper()
	b, err := pipeline.Compile("demotion", demotionSrc, pipeline.Options{
		InlineLimit: 100,
		NoCache:     true,
		Analysis:    analysis,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return b
}

// TestLoopAllocDemotionLimitsElision: with the demotion in place exactly
// the fresh-object store is elided; prev's store stays barriered because
// prev names the B summary whose f field is unknown.
func TestLoopAllocDemotionLimitsElision(t *testing.T) {
	b := compileDemotion(t, core.Options{Mode: core.ModeFieldArray})
	fieldSites, _, fieldElided, _, _ := b.Report.Totals()
	if fieldSites != 2 {
		t.Fatalf("fieldSites = %d, want 2", fieldSites)
	}
	if fieldElided != 1 {
		t.Fatalf("fieldElided = %d, want 1 (only the fresh-object store)", fieldElided)
	}
	res, err := b.Run(vm.Config{
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
	if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
		t.Fatalf("sound analysis produced unsound elisions: %v", s.UnsoundSites)
	}
}

// TestLoopArrayAllocDemotion: the same discipline for newarray — an array
// allocated per iteration loses its length/NR facts on re-execution, so a
// store through a loop-carried array alias is not elidable.
func TestLoopArrayAllocDemotion(t *testing.T) {
	src := `
class C { C f; }
class Main {
    static void main() {
        C[] prev = null;
        for (int i = 0; i < 3; i = i + 1) {
            C[] a = new C[4];
            a[0] = new C();
            if (prev != null) { prev[1] = new C(); }
            prev = a;
        }
        print(0);
    }
}
`
	b, err := pipeline.Compile("arrdemotion", src, pipeline.Options{
		InlineLimit: 100,
		NoCache:     true,
		Analysis:    core.Options{Mode: core.ModeFieldArray},
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := b.Run(vm.Config{
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
	if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
		t.Fatalf("array demotion unsound: %v", s.UnsoundSites)
	}
}
