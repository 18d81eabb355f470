package metatest

import (
	"strings"
	"testing"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/progen"
)

// TestCampaignCleanOnSoundAnalysis: the full property library over a
// modest campaign corpus finds nothing on the real analysis.
func TestCampaignCleanOnSoundAnalysis(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	res, err := RunCampaign(Options{
		Seeds:    seeds,
		Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("campaign found %d failures; first: seed %d %s: %s\nrepro:\n%s",
			len(res.Failures), f.Seed, f.Property, f.Message, f.Repro)
	}
	if res.SeedsRun != seeds {
		t.Errorf("ran %d seeds, want %d", res.SeedsRun, seeds)
	}
	wantChecks := seeds * len(Properties())
	if res.Checks != wantChecks {
		t.Errorf("ran %d checks, want %d", res.Checks, wantChecks)
	}
}

// TestCampaignBudget: the wall-clock budget stops the run early and is
// reported.
func TestCampaignBudget(t *testing.T) {
	res, err := RunCampaign(Options{
		Seeds:    1_000_000,
		Analysis: core.Options{Mode: core.ModeFieldArray},
		Budget:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExhausted {
		t.Error("budget exhaustion not reported")
	}
	if res.SeedsRun >= 1_000_000 {
		t.Error("budget did not stop the campaign")
	}
}

// TestReplaySeedMatchesCampaignGeneration: -seed replay regenerates the
// exact campaign program.
func TestReplaySeedMatchesCampaignGeneration(t *testing.T) {
	src, vs, err := ReplaySeed(7, progen.Config{}, core.Options{Mode: core.ModeFieldArray}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("sound analysis failed on seed 7: %v", vs[0])
	}
	if want := progen.Generate(7, progen.CampaignConfig()); src != want {
		t.Error("replay generated a different program than the campaign")
	}
}

// TestSelectPropsRejectsUnknown: typos in -props fail loudly.
func TestSelectPropsRejectsUnknown(t *testing.T) {
	_, err := RunCampaign(Options{Seeds: 1, Props: []string{"no-such-prop"}})
	if err == nil || !strings.Contains(err.Error(), "unknown property") {
		t.Fatalf("want unknown-property error, got %v", err)
	}
}
