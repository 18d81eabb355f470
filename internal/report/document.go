package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/obs"
	"satbelim/internal/pipeline"
	"satbelim/internal/vm"
)

// SchemaVersion is the version of the Document JSON schema. Bump it on
// any breaking change to the document shape; the golden test in
// document_test.go pins the current shape.
const SchemaVersion = 2

// Document is the one versioned JSON report schema every CLI emits:
// satbbench -json writes experiment sections, satbvm -json writes a Run
// section, satbc -json writes a Compile section, and the -metrics export
// of all three writes a Metrics section. Sections are optional; the
// schemaVersion and tool fields are always present.
type Document struct {
	SchemaVersion int    `json:"schemaVersion"`
	Tool          string `json:"tool"`

	InlineLimit int `json:"inline_limit,omitempty"`

	// Experiment sections (satbbench).
	Table1     []Table1Row     `json:"table1,omitempty"`
	Table2     []Table2Row     `json:"table2,omitempty"`
	Figure2    []Fig2Point     `json:"figure2,omitempty"`
	Figure3    []Fig3Row       `json:"figure3,omitempty"`
	NullOrSame []NullOrSameRow `json:"null_or_same,omitempty"`
	Rearrange  []RearrangeRow  `json:"rearrange,omitempty"`
	// Barriers is the cross-flavor barrier matrix (satbbench -barriers).
	Barriers        []BarrierRow   `json:"barriers,omitempty"`
	Interprocedural []InterprocRow `json:"interprocedural,omitempty"`
	Oracle          []OracleRow    `json:"oracle,omitempty"`

	// Run is one VM execution's summary (satbvm).
	Run *RunSummary `json:"run,omitempty"`
	// Compile is one compilation's summary (satbc).
	Compile *CompileSummary `json:"compile,omitempty"`
	// Campaign is one metamorphic campaign's outcome (satbtest).
	Campaign *CampaignSummary `json:"campaign,omitempty"`

	// Satbd is the daemon section (satbd): per-response request
	// metadata, daemon service counters, and load-test results.
	Satbd *Satbd `json:"satbd,omitempty"`
	// Methods is per-method analysis detail (satbd /analyze).
	Methods []MethodSummary `json:"methods,omitempty"`

	// Metrics is the observability rollup (-metrics on any tool).
	Metrics *obs.Metrics `json:"metrics,omitempty"`
	// BuildCache reports build-cache effectiveness over the whole run.
	BuildCache *pipeline.CacheStats `json:"build_cache,omitempty"`
}

// NewDocument returns a Document stamped with the schema version and the
// emitting tool's name.
func NewDocument(tool string) *Document {
	return &Document{SchemaVersion: SchemaVersion, Tool: tool}
}

// RunSummary is one VM run in Document form.
type RunSummary struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Flavor is the barrier flavor the run executed with ("conditional",
	// "yuasa", "dijkstra", ...).
	Flavor      string  `json:"barrier_flavor,omitempty"`
	Output      []int64 `json:"output"`
	Steps       int64   `json:"steps"`
	BarrierCost uint64  `json:"barrier_cost"`
	TotalCost   uint64  `json:"total_cost"`
	Logged      uint64  `json:"logged"`
	// Shaded counts insertion-side shade events (new-value shading by
	// the dijkstra and hybrid flavors).
	Shaded         uint64  `json:"shaded,omitempty"`
	CardsDirtied   uint64  `json:"cards_dirtied,omitempty"`
	StaticExecs    uint64  `json:"static_execs"`
	BarrierExecs   uint64  `json:"barrier_execs"`
	ElidedExecs    uint64  `json:"elided_execs"`
	ElimPct        float64 `json:"elim_pct"`
	Cycles         int     `json:"cycles"`
	FinalPauseWork int     `json:"final_pause_work"`
	Allocated      int64   `json:"allocated"`
	Swept          int     `json:"swept"`
	ElisionChecks  int64   `json:"elision_checks,omitempty"`
	// Tier counters (compiled engine only).
	TierUps      int   `json:"tier_ups,omitempty"`
	TierDeopts   int64 `json:"tier_deopts,omitempty"`
	TierSegExecs int64 `json:"tier_seg_execs,omitempty"`
}

// NewRunSummary converts a VM result into its Document form.
func NewRunSummary(workload string, res *vm.Result) *RunSummary {
	s := res.Counters.Summarize()
	return &RunSummary{
		Workload:       workload,
		Engine:         res.Engine,
		Flavor:         res.Flavor,
		Shaded:         res.Counters.Shaded,
		Output:         res.Output,
		Steps:          res.Steps,
		BarrierCost:    res.Counters.Cost,
		TotalCost:      res.TotalCost(),
		Logged:         res.Counters.Logged,
		CardsDirtied:   res.Counters.CardsDirtied,
		StaticExecs:    res.Counters.StaticExecs,
		BarrierExecs:   s.TotalExecs,
		ElidedExecs:    s.ElidedExecs,
		ElimPct:        num.Pct(s.ElidedExecs, s.TotalExecs),
		Cycles:         res.Cycles,
		FinalPauseWork: res.FinalPauseWork,
		Allocated:      res.Allocated,
		Swept:          res.Swept,
		ElisionChecks:  res.ElisionChecks,
		TierUps:        res.TierUps,
		TierDeopts:     res.TierDeopts,
		TierSegExecs:   res.TierSegExecs,
	}
}

// CampaignSummary is a satbtest metamorphic campaign in Document form.
// The types are plain data (no metatest import) so the document schema
// stays self-contained; cmd/satbtest converts.
type CampaignSummary struct {
	BaseSeed        int64             `json:"base_seed"`
	SeedsRun        int               `json:"seeds_run"`
	Checks          int               `json:"checks"`
	Properties      []string          `json:"properties"`
	Failures        []CampaignFailure `json:"failures,omitempty"`
	BudgetExhausted bool              `json:"budget_exhausted,omitempty"`
	ElapsedNs       int64             `json:"elapsed_ns"`
}

// CampaignFailure is one shrunk campaign counterexample. ReproFile names
// the artifact written under -out (empty when -out was not given); the
// full repro source is always inline.
type CampaignFailure struct {
	Seed         int64  `json:"seed"`
	Property     string `json:"property"`
	Message      string `json:"message"`
	ReproLines   int    `json:"repro_lines"`
	ShrinkChecks int    `json:"shrink_checks"`
	Repro        string `json:"repro"`
	ReproFile    string `json:"repro_file,omitempty"`
}

// CompileSummary is one compilation in Document form.
type CompileSummary struct {
	Workload         string `json:"workload"`
	InlineLimit      int    `json:"inline_limit"`
	BytecodeBytes    int    `json:"bytecode_bytes"`
	InlinedCalls     int    `json:"inlined_calls"`
	CompiledCodeSize int    `json:"compiled_code_size"`
	// Stages are the stage times in the pipeline's table order; a
	// skipped stage reads 0 ns.
	Stages      [pipeline.NumStages]StageTime `json:"stages"`
	CacheHit    bool                          `json:"cache_hit"`
	FieldSites  int                           `json:"field_sites"`
	ArraySites  int                           `json:"array_sites"`
	FieldElided int                           `json:"field_elided"`
	ArrayElided int                           `json:"array_elided"`
	NullOrSame  int                           `json:"null_or_same,omitempty"`
	Degraded    []string                      `json:"degraded,omitempty"`
}

// StageTime is one compile stage's wall time.
type StageTime struct {
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
}

// NewCompileSummary converts a pipeline build into its Document form.
func NewCompileSummary(b *pipeline.Build) *CompileSummary {
	c := &CompileSummary{
		Workload:         b.Name,
		InlineLimit:      b.Options.InlineLimit,
		BytecodeBytes:    b.BytecodeBytes,
		InlinedCalls:     b.InlinedCalls,
		CompiledCodeSize: b.CompiledCodeSize(),
		CacheHit:         b.CacheHit,
	}
	for s, d := range b.StageTime {
		c.Stages[s] = StageTime{Stage: pipeline.Stage(s).String(), Ns: d.Nanoseconds()}
	}
	if b.Report != nil {
		c.FieldSites, c.ArraySites, c.FieldElided, c.ArrayElided, c.NullOrSame = b.Report.Totals()
		for _, m := range b.Report.Degraded() {
			c.Degraded = append(c.Degraded, fmt.Sprintf("%s (%s)", m.Method.QualifiedName(), m.Degraded))
		}
	}
	return c
}

// Satbd is the daemon section. Every satbd HTTP response carries a
// Document with Request set; /healthz and /metrics carry Stats; the
// load-test client emits Load.
type Satbd struct {
	Request *SatbdRequest `json:"request,omitempty"`
	Stats   *SatbdStats   `json:"stats,omitempty"`
	Load    *SatbdLoad    `json:"load,omitempty"`
}

// SatbdRequest is the daemon's per-request envelope: identity, the
// admission decision that shaped the request's budgets, and the outcome
// class ("ok", "degraded", "shed", "timeout", "error", "panic"). A
// degraded outcome is always flagged here and detailed in the sibling
// Compile section — degradation is never silent.
type SatbdRequest struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Outcome  string `json:"outcome"`
	Error    string `json:"error,omitempty"`

	// DeadlineMS is the effective per-request deadline after clamping.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tier is the admission tier (0 = full budgets; each step halves
	// the structural analysis budgets).
	Tier           int   `json:"tier"`
	MaxBlockVisits int   `json:"max_block_visits,omitempty"`
	MaxStateSize   int   `json:"max_state_size,omitempty"`
	MaxSteps       int64 `json:"max_steps,omitempty"`

	QueueDepth  int   `json:"queue_depth"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ElapsedNS   int64 `json:"elapsed_ns"`
	// RetryAfterS mirrors the Retry-After header on shed responses.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// SatbdStats is the daemon's service-level counter snapshot.
type SatbdStats struct {
	UptimeNS   int64 `json:"uptime_ns"`
	Requests   int64 `json:"requests"`
	OK         int64 `json:"ok"`
	Degraded   int64 `json:"degraded"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
	Errors     int64 `json:"errors"`
	Panics     int64 `json:"panics"`
	Inflight   int64 `json:"inflight"`
	Queued     int64 `json:"queued"`
	QueuedPeak int64 `json:"queued_peak"`
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	// Compiled-tier counters accumulated across /run requests that
	// executed on the compiled engine.
	TierUps      int64 `json:"tier_ups,omitempty"`
	TierDeopts   int64 `json:"tier_deopts,omitempty"`
	TierSegExecs int64 `json:"tier_seg_execs,omitempty"`
	// Barrier traffic accumulated across /run requests: deletion-side
	// log entries and insertion-side shade events. Per-flavor splits are
	// on /metrics as vm.barrier.flavor.*.
	Logged int64 `json:"logged,omitempty"`
	Shaded int64 `json:"shaded,omitempty"`
}

// SatbdLoad is one load-test run's outcome (satbd -loadtest).
type SatbdLoad struct {
	Programs    int            `json:"programs"`
	Concurrency int            `json:"concurrency"`
	Seed        int64          `json:"seed"`
	Sent        int            `json:"sent"`
	ByOutcome   map[string]int `json:"by_outcome"`
	ByStatus    map[string]int `json:"by_status"`
	// OutputsVerified counts /run responses whose program output was
	// re-executed locally and matched (the silently-wrong check).
	OutputsVerified int `json:"outputs_verified"`
	// Latency is the wall-clock latency distribution per outcome class
	// ("ok", "shed", ...).
	Latency map[string]SatbdLatency `json:"latency,omitempty"`
	// Invalid lists schema or consistency violations (capped); a
	// passing load run has none.
	Invalid   []string `json:"invalid,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns"`
}

// SatbdLatency is one outcome class's request-latency distribution from
// a load run (nanoseconds; percentiles by nearest-rank).
type SatbdLatency struct {
	Count int   `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// MethodSummary is one method's analysis report in Document form.
type MethodSummary struct {
	Method      string `json:"method"`
	FieldSites  int    `json:"field_sites"`
	ArraySites  int    `json:"array_sites"`
	FieldElided int    `json:"field_elided"`
	ArrayElided int    `json:"array_elided"`
	NullOrSame  int    `json:"null_or_same,omitempty"`
	BlockVisits int    `json:"block_visits"`
	Degraded    string `json:"degraded,omitempty"`
}

// NewMethodSummaries converts a program report into per-method Document
// rows, in program order.
func NewMethodSummaries(rep *core.ProgramReport) []MethodSummary {
	if rep == nil {
		return nil
	}
	out := make([]MethodSummary, 0, len(rep.Methods))
	for _, m := range rep.Methods {
		ms := MethodSummary{
			Method:      m.Method.QualifiedName(),
			FieldSites:  m.FieldSites,
			ArraySites:  m.ArraySites,
			FieldElided: m.FieldElided,
			ArrayElided: m.ArrayElided,
			NullOrSame:  m.NullOrSame,
			BlockVisits: m.BlockVisits,
		}
		if m.Degraded != core.DegradeNone {
			ms.Degraded = string(m.Degraded)
		}
		out = append(out, ms)
	}
	return out
}

// FormatObsSummary renders the observability metrics as the human-
// readable summary table: span aggregates first (sorted by total time,
// descending), then counters (sorted by name).
func FormatObsSummary(m *obs.Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability summary\n")
	if len(m.Spans) > 0 {
		fmt.Fprintf(&b, "%-12s %-28s %8s %12s %12s\n", "category", "span", "count", "total", "max")
		spans := make([]obs.SpanStat, len(m.Spans))
		copy(spans, m.Spans)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].TotalNS > spans[j].TotalNS })
		const maxRows = 20
		for i, s := range spans {
			if i == maxRows {
				fmt.Fprintf(&b, "  ... %d more span groups (see -metrics JSON)\n", len(spans)-maxRows)
				break
			}
			fmt.Fprintf(&b, "%-12s %-28s %8d %12v %12v\n", s.Cat, s.Name, s.Count,
				time.Duration(s.TotalNS).Round(time.Microsecond),
				time.Duration(s.MaxNS).Round(time.Microsecond))
		}
	}
	if len(m.Counters) > 0 {
		names := make([]string, 0, len(m.Counters))
		for k := range m.Counters {
			// Per-site counters are high-cardinality; the table shows
			// rollups only, the JSON document has everything.
			if strings.HasPrefix(k, "vm.site.") {
				continue
			}
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%-44s %14s\n", "counter", "value")
		for _, k := range names {
			fmt.Fprintf(&b, "%-44s %14d\n", k, m.Counters[k])
		}
	}
	return b.String()
}
