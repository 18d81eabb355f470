package core_test

// End-to-end tests for the R_id/A → R_id/B demotion (paper §3.2): when an
// allocation site re-executes in a loop, the previous iteration's object
// must lose the unique A name, so stores through a loop-carried alias get
// weak-update semantics and keep their barriers. The renameAlloc unit
// tests in state_test.go cover the σ-transfer mechanics; these tests pin
// the observable analysis decisions and prove the skip-B-demotion
// fault-injection knob really reopens the hole the demotion closes.

import (
	"errors"
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

// TestUnsoundSkipBDemotionReopensHole: skipping the demotion keeps prev's
// RefSet a stale singleton {A}, so the analysis judges prev.f pre-null
// and elides a store that dynamically observes a non-null slot. (The
// static count stays 1 — the strong update through prev then masks o.f —
// so it is the *choice* of site that goes wrong, not the count.) The
// runtime oracle must flag it — this is the fault the metamorphic
// campaign's self-test injects.
func TestUnsoundSkipBDemotionReopensHole(t *testing.T) {
	sound := compileDemotion(t, core.Options{Mode: core.ModeFieldArray})
	b := compileDemotion(t, core.InjectFaults(core.Options{Mode: core.ModeFieldArray}, true, false))
	same := true
	soundVerdicts, verdicts := sound.Program.Verdicts(), b.Program.Verdicts()
	for mi, m := range b.Program.Methods() {
		for pc := range m.Code {
			if verdicts.At(mi, pc) != soundVerdicts.At(mi, pc) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("injected bug did not change any elision decision")
	}
	_, err := b.Run(vm.Config{
		Barrier:            satb.ModeConditional,
		GC:                 vm.GCSATB,
		TriggerEveryAllocs: 2,
		CheckElisions:      true,
		MaxSteps:           1_000_000,
	})
	var sv *vm.SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("oracle missed the injected /B-demotion bug (err=%v)", err)
	}
	if sv.Method != "Main.main" {
		t.Errorf("violation blamed %q, want Main.main", sv.Method)
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
