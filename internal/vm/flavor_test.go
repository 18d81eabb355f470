package vm

// Per-flavor soundness tests: the oracle must reject analysis verdicts
// that leak past a flavor's soundness predicate (the ForceRawElide test hook
// bypasses the projection to prove that), and the projection itself must
// make every flavor run clean on the same analyzed program.

import (
	"errors"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
)

// flavorSrc has a genuinely pre-null field store and a genuinely
// null-or-same array rewrite, so mode-A analysis with the null-or-same
// extension produces one verdict of each kind.
const flavorSrc = `
class N { N next; }
class A {
    static void main() {
        int k = 0;
        for (int i = 0; i < 60; i = i + 1) {
            N head = new N();
            head.next = new N();     // pre-null every iteration
            head.next = head.next;   // null-or-same recopy
            head.next = new N();     // overwrites non-null: kept barrier
            N[] arr = new N[4];
            for (int j = 0; j < 4; j = j + 1) arr[j] = new N();
            k = k + 1;
        }
        print(k);
    }
}
`

// analyzedFlavorProgram compiles and analyzes flavorSrc, asserting both
// verdict kinds are present.
func analyzedFlavorProgram(t *testing.T) *bytecode.Program {
	t.Helper()
	p := compileSrc(t, flavorSrc, 100)
	if _, err := core.AnalyzeProgram(p, core.Options{Mode: core.ModeFieldArray, NullOrSame: true}); err != nil {
		t.Fatal(err)
	}
	var prenull, nos bool
	for n := range p.Methods() {
		for _, v := range p.Verdicts().Of(n) {
			prenull = prenull || v == bytecode.VerdictPreNull
			nos = nos || v == bytecode.VerdictNullOrSame
		}
	}
	if !prenull || !nos {
		t.Fatalf("analysis produced prenull=%v nullorsame=%v, want both", prenull, nos)
	}
	return p
}

// TestFlavorOracleCatchesCrossFlavorElision proves the oracle rejects a
// pre-null verdict executed under the insertion-only dijkstra flavor
// when the projection is bypassed: dijkstra shades new values, so an
// un-logged overwrite of a live pre-value is exactly the deletion-side
// hole the verdict cannot excuse.
func TestFlavorOracleCatchesCrossFlavorElision(t *testing.T) {
	p := analyzedFlavorProgram(t)
	_, err := NewWithHooks(p, Config{
		Barrier:       satb.ModeDijkstra,
		CheckElisions: true,
	}, TestHooks{ForceRawElide: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if !strings.Contains(sv.Reason, "unsound under the dijkstra barrier flavor") {
		t.Errorf("reason = %q, want cross-flavor diagnostic", sv.Reason)
	}
}

// TestFlavorOracleCatchesHybridNullOrSame: the hybrid flavor accepts
// pre-null verdicts but not null-or-same (the same-value rewrite still
// needs its insertion-side shade), so a raw null-or-same elision must
// trip the oracle.
func TestFlavorOracleCatchesHybridNullOrSame(t *testing.T) {
	p := analyzedFlavorProgram(t)
	_, err := NewWithHooks(p, Config{
		Barrier:       satb.ModeHybrid,
		CheckElisions: true,
	}, TestHooks{ForceRawElide: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if sv.Elide != satb.ElideNullOrSame {
		t.Errorf("violation kind = %v, want null-or-same", sv.Elide)
	}
	if !strings.Contains(sv.Reason, "unsound under the hybrid barrier flavor") {
		t.Errorf("reason = %q, want cross-flavor diagnostic", sv.Reason)
	}
}

// TestFlavorOracleCleanRuns runs the analyzed program under every
// flavor WITH projection: each flavor consumes only the verdicts its
// predicate accepts, so the oracle must stay silent, and the check
// counts must reflect the per-flavor verdict subset (yuasa validates
// everything, hybrid only the pre-null sites, dijkstra nothing).
func TestFlavorOracleCleanRuns(t *testing.T) {
	p := analyzedFlavorProgram(t)
	for _, tc := range []struct {
		mode   satb.BarrierMode
		checks string // "all", "some", "none"
	}{
		{satb.ModeYuasa, "all"},
		{satb.ModeHybrid, "some"},
		{satb.ModeDijkstra, "none"},
	} {
		res, err := New(p, Config{
			Barrier:            tc.mode,
			GC:                 GCSATB,
			TriggerEveryAllocs: 20,
			CheckInvariant:     true,
			CheckElisions:      true,
		}).Run()
		if err != nil {
			t.Fatalf("%s: oracle flagged a projected run: %v", tc.mode, err)
		}
		switch tc.checks {
		case "none":
			if res.ElisionChecks != 0 {
				t.Errorf("%s: ElisionChecks = %d, want 0 (all verdicts projected away)", tc.mode, res.ElisionChecks)
			}
		default:
			if res.ElisionChecks == 0 {
				t.Errorf("%s: ElisionChecks = 0, want > 0", tc.mode)
			}
		}
		if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
			t.Errorf("%s: unsound sites %v", tc.mode, s.UnsoundSites)
		}
	}
}

// TestFlavorShadeTraffic checks each flavor generates the barrier
// traffic its spec declares while marking is active: deletion-side
// flavors log pre-values, insertion-side flavors shade new values, the
// hybrid does both.
func TestFlavorShadeTraffic(t *testing.T) {
	p := analyzedFlavorProgram(t)
	for _, tc := range []struct {
		mode           satb.BarrierMode
		logged, shaded bool
	}{
		{satb.ModeConditional, true, false},
		{satb.ModeYuasa, true, false},
		{satb.ModeDijkstra, false, true},
		{satb.ModeHybrid, true, true},
	} {
		res, err := New(p, Config{
			Barrier:            tc.mode,
			GC:                 GCSATB,
			TriggerEveryAllocs: 20,
		}).Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if got := res.Counters.Logged > 0; got != tc.logged {
			t.Errorf("%s: Logged = %d, want >0 = %v", tc.mode, res.Counters.Logged, tc.logged)
		}
		if got := res.Counters.Shaded > 0; got != tc.shaded {
			t.Errorf("%s: Shaded = %d, want >0 = %v", tc.mode, res.Counters.Shaded, tc.shaded)
		}
		if res.Flavor != tc.mode.String() {
			t.Errorf("Result.Flavor = %q, want %q", res.Flavor, tc.mode.String())
		}
	}
}

// TestFlavorInvariantGating: the snapshot-invariant checker must arm
// only on snapshot-sound flavors — a dijkstra run does not maintain the
// mark-start snapshot and would be falsely rejected.
func TestFlavorInvariantGating(t *testing.T) {
	p := analyzedFlavorProgram(t)
	for _, mode := range []satb.BarrierMode{satb.ModeDijkstra, satb.ModeHybrid, satb.ModeYuasa} {
		res, err := New(p, Config{
			Barrier:            mode,
			GC:                 GCSATB,
			TriggerEveryAllocs: 20,
			CheckInvariant:     true,
		}).Run()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%s: no marking cycles ran", mode)
		}
	}
}
