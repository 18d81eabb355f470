package report

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satbelim/internal/obs"
	"satbelim/internal/pipeline"
	"satbelim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleDocument builds a fully-populated Document with fixed values, so
// the golden pins the entire serialized schema (key names, nesting,
// omitempty behaviour) independent of wall-clock or machine.
func sampleDocument() *Document {
	doc := NewDocument("satbbench")
	doc.InlineLimit = 100
	doc.Table1 = []Table1Row{{
		Name: "jbb", Total: 1000, ElimPct: 52.5, PotPct: 60.0,
		FieldShare: 70.0, ArrayShare: 30.0, FieldElim: 55.0, ArrayElim: 45.0,
		Paper: workloads.PaperRow{},
	}}
	doc.Barriers = []BarrierRow{{
		Workload: "jbb", Flavor: "hybrid", GC: "satb",
		StaticKept: 14, StaticDiscarded: 4,
		Execs: 1000, ElimPct: 48.0, PreNullPct: 40.0,
		NullOrSamePct: 8.0, RearrangePct: 0.0,
		Logged: 120, Shaded: 95, Cards: 0,
		BarrierCost: 4200, TotalCost: 16545, Relative: 0.985,
	}}
	doc.Run = &RunSummary{
		Workload: "jbb", Engine: "fused", Flavor: "hybrid", Output: []int64{42},
		Steps: 12345, BarrierCost: 678, TotalCost: 13023,
		Logged: 90, Shaded: 35, CardsDirtied: 0, StaticExecs: 12,
		BarrierExecs: 400, ElidedExecs: 210, ElimPct: 52.5,
		Cycles: 3, FinalPauseWork: 7, Allocated: 500, Swept: 450,
		ElisionChecks: 210,
	}
	doc.Compile = &CompileSummary{
		Workload: "jbb", InlineLimit: 100, BytecodeBytes: 2048,
		InlinedCalls: 17, CompiledCodeSize: 4096,
		CacheHit: true, FieldSites: 20, ArraySites: 10,
		FieldElided: 12, ArrayElided: 4, NullOrSame: 2,
		Degraded: []string{"A.slow (deadline)"},
	}
	for s := range doc.Compile.Stages {
		doc.Compile.Stages[s] = StageTime{Stage: pipeline.Stage(s).String(), Ns: int64(s+1) * 1000}
	}
	doc.Campaign = &CampaignSummary{
		BaseSeed: 0, SeedsRun: 250, Checks: 1250,
		Properties: []string{"engine-invariance", "inline-soundness"},
		Failures: []CampaignFailure{{
			Seed: 17, Property: "inline-soundness",
			Message:    "limit 50: unsound sites [Main.main:12]",
			ReproLines: 9, ShrinkChecks: 41,
			Repro:     "class Main { static void main() { print(0); } }",
			ReproFile: "repros/seed17-inline-soundness.mj",
		}},
		ElapsedNs: 6000000000,
	}
	doc.Metrics = &obs.Metrics{
		Counters: map[string]int64{
			"analysis.methods":    9,
			"pipeline.cache.hits": 1,
			"vm.steps":            12345,
		},
		Spans: []obs.SpanStat{
			{Cat: "pipeline", Name: "analyze", Count: 1, TotalNS: 5000000, MaxNS: 5000000},
			{Cat: "vm", Name: "run", Count: 1, TotalNS: 9000000, MaxNS: 9000000},
		},
	}
	doc.BuildCache = &pipeline.CacheStats{
		Hits: 1, Misses: 2, Entries: 2,
		Evictions: 1, Coalesced: 3,
	}
	doc.Satbd = &Satbd{
		Request: &SatbdRequest{
			ID: "r000007", Endpoint: "run", Outcome: "degraded",
			DeadlineMS: 2000, Tier: 1,
			MaxBlockVisits: 100000, MaxStateSize: 524288, MaxSteps: 10000000,
			QueueDepth: 3, QueueWaitNS: 150000, ElapsedNS: 4200000,
		},
		Stats: &SatbdStats{
			UptimeNS: 60000000000, Requests: 1000, OK: 900, Degraded: 40,
			Shed: 30, Timeouts: 20, Errors: 8, Panics: 2,
			Inflight: 4, Queued: 2, QueuedPeak: 12,
			Workers: 4, QueueDepth: 16,
			Logged: 5100, Shaded: 2300,
		},
		Load: &SatbdLoad{
			Programs: 200, Concurrency: 8, Seed: 7, Sent: 200,
			ByOutcome:       map[string]int{"degraded": 12, "ok": 180, "shed": 8},
			ByStatus:        map[string]int{"200": 192, "429": 8},
			OutputsVerified: 60,
			ElapsedNS:       9000000000,
		},
	}
	doc.Methods = []MethodSummary{
		{Method: "A.main", FieldSites: 20, ArraySites: 10, FieldElided: 12,
			ArrayElided: 4, NullOrSame: 2, BlockVisits: 64},
		{Method: "A.slow", FieldSites: 3, BlockVisits: 128, Degraded: "deadline"},
	}
	return doc
}

// TestDocumentGolden pins the versioned JSON schema: any change to field
// names, nesting, or omitempty behaviour shows up as a golden diff and
// must come with a SchemaVersion bump if it breaks consumers.
func TestDocumentGolden(t *testing.T) {
	data, err := json.MarshalIndent(sampleDocument(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden := filepath.Join("testdata", "document.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(want) != string(data) {
		t.Errorf("document schema drifted from golden.\ngot:\n%s\nwant:\n%s\n(run with -update after bumping SchemaVersion if intended)", data, want)
	}
}

// TestDocumentSchemaVersion checks the version key is spelled exactly
// `schemaVersion` and always serialized, and that empty sections vanish.
func TestDocumentSchemaVersion(t *testing.T) {
	data, err := json.Marshal(NewDocument("satbc"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["schemaVersion"]; !ok || v != float64(SchemaVersion) {
		t.Errorf("schemaVersion = %v, want %d", v, SchemaVersion)
	}
	if m["tool"] != "satbc" {
		t.Errorf("tool = %v, want satbc", m["tool"])
	}
	if len(m) != 2 {
		t.Errorf("empty document must serialize only schemaVersion+tool, got keys %v", m)
	}
}

// TestFormatObsSummary sanity-checks the human-readable table.
func TestFormatObsSummary(t *testing.T) {
	doc := sampleDocument()
	out := FormatObsSummary(doc.Metrics)
	for _, want := range []string{"Observability summary", "analyze", "vm.steps", "analysis.methods"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Per-site counters are suppressed from the table.
	doc.Metrics.Counters["vm.site.A.main.3.execs"] = 5
	out = FormatObsSummary(doc.Metrics)
	if strings.Contains(out, "vm.site.") {
		t.Errorf("per-site counter leaked into the summary table:\n%s", out)
	}
}
