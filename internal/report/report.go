// Package report regenerates the paper's evaluation tables and figures
// over the MiniJava workload suite: Table 1 (dynamic barrier elimination),
// Table 2 (jbb end-to-end barrier cost), Figure 2 (inlining level vs
// effectiveness and compile time), Figure 3 (compiled code size), and the
// §4.3 null-or-same site measurements.
package report

import (
	"fmt"
	"strings"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// DefaultInlineLimit is the paper's chosen operating point (§4.4: "The
// 100-bytecode inlining level gains essentially all the analysis
// results").
const DefaultInlineLimit = 100

// buildAndRun compiles a workload with the given options and runs it with
// conditional SATB barriers (marking kept permanently active so that every
// barrier's dynamic behaviour is observed).
func buildAndRun(w *workloads.Workload, inlineLimit int, opts core.Options) (*pipeline.Build, *vm.Result, error) {
	b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
		InlineLimit: inlineLimit,
		Analysis:    opts,
		Runtime:     vm.Config{Barrier: satb.ModeConditional},
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := b.Exec()
	if err != nil {
		return nil, nil, err
	}
	return b, res, nil
}

// Table1Row is one benchmark's dynamic results, paired with the paper's.
type Table1Row struct {
	Name       string
	Total      uint64
	ElimPct    float64
	PotPct     float64
	FieldShare float64
	ArrayShare float64
	FieldElim  float64
	ArrayElim  float64
	Paper      workloads.PaperRow
}

// Table1 measures the dynamic elimination results for every workload
// (analysis mode A, the paper's configuration).
func Table1(inlineLimit int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range workloads.All() {
		_, res, err := buildAndRun(w, inlineLimit, core.Options{Mode: core.ModeFieldArray})
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", w.Name, err)
		}
		s := res.Counters.Summarize()
		if len(s.UnsoundSites) > 0 {
			return nil, fmt.Errorf("table1 %s: unsound elisions %v", w.Name, s.UnsoundSites)
		}
		rows = append(rows, Table1Row{
			Name:       w.Name,
			Total:      s.TotalExecs,
			ElimPct:    num.Pct(s.ElidedExecs, s.TotalExecs),
			PotPct:     num.Pct(s.PotPreNull, s.TotalExecs),
			FieldShare: num.Pct(s.FieldExecs, s.TotalExecs),
			ArrayShare: num.Pct(s.ArrayExecs, s.TotalExecs),
			FieldElim:  num.Pct(s.FieldElided, s.FieldExecs),
			ArrayElim:  num.Pct(s.ArrayElided, s.ArrayExecs),
			Paper:      w.Paper,
		})
	}
	return rows, nil
}

// FormatTable1 renders measured-vs-paper rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: dynamic barrier elimination (measured | paper)\n")
	fmt.Fprintf(&b, "%-7s %10s %15s %15s %13s %15s %15s\n",
		"bench", "total", "% elim", "% pot pre-null", "field/array", "field % elim", "array % elim")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %10d %6.1f | %5.1f %6.1f | %6.1f %3.0f/%2.0f | %2.0f/%2.0f %6.1f | %6.1f %6.1f | %6.1f\n",
			r.Name, r.Total,
			r.ElimPct, r.Paper.ElimPct,
			r.PotPct, r.Paper.PotPreNullPct,
			r.FieldShare, r.ArrayShare, r.Paper.FieldPct, r.Paper.ArrayPct,
			r.FieldElim, r.Paper.FieldElimPct,
			r.ArrayElim, r.Paper.ArrayElimPct)
	}
	return b.String()
}

// Table2Row is one barrier-mode configuration of the jbb end-to-end
// experiment.
type Table2Row struct {
	Mode       string
	Cost       uint64  // total cost-model units
	Throughput float64 // work units per 1000 cost units
	Relative   float64 // vs no-barrier
}

// Table2 measures end-to-end barrier cost on jbb under the three modes of
// the paper's Table 2: no-barrier, always-log (check elided, no analysis)
// and always-log-elim (always-log plus barrier elimination).
func Table2(inlineLimit int) ([]Table2Row, error) {
	w, err := workloads.Get("jbb")
	if err != nil {
		return nil, err
	}
	type cfg struct {
		name string
		mode satb.BarrierMode
		opts core.Options
	}
	cfgs := []cfg{
		{"no-barrier", satb.ModeNoBarrier, core.Options{Mode: core.ModeNone}},
		{"always-log", satb.ModeAlwaysLog, core.Options{Mode: core.ModeNone}},
		{"always-log-elim", satb.ModeAlwaysLog, core.Options{Mode: core.ModeFieldArray}},
	}
	var rows []Table2Row
	var base float64
	for _, c := range cfgs {
		b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: inlineLimit,
			Analysis:    c.opts,
			Runtime:     vm.Config{Barrier: c.mode},
		})
		if err != nil {
			return nil, err
		}
		res, err := b.Exec()
		if err != nil {
			return nil, err
		}
		tp := 1000 * float64(res.Steps) / float64(res.TotalCost())
		if c.name == "no-barrier" {
			base = tp
		}
		rows = append(rows, Table2Row{Mode: c.name, Cost: res.TotalCost(), Throughput: tp, Relative: tp / base})
	}
	return rows, nil
}

// FormatTable2 renders the jbb end-to-end rows next to the paper's
// relative throughputs (1.000 / 0.975 / 0.984).
func FormatTable2(rows []Table2Row) string {
	paper := map[string]float64{"no-barrier": 1.000, "always-log": 0.975, "always-log-elim": 0.984}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: jbb end-to-end barrier cost (deterministic cost model)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %10s\n", "barrier mode", "cost units", "throughput", "relative", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12d %12.2f %10.3f %10.3f\n", r.Mode, r.Cost, r.Throughput, r.Relative, paper[r.Mode])
	}
	return b.String()
}

// Fig2Point is one (inline limit, analysis mode) observation for one
// workload.
type Fig2Point struct {
	Workload     string
	Limit        int
	Mode         core.Mode
	ElimPct      float64
	CompileTime  time.Duration
	AnalysisTime time.Duration
	CodeBytes    int
}

// Figure2Limits is the paper's sweep.
var Figure2Limits = []int{0, 25, 50, 100, 200}

// Figure2 sweeps inlining levels × analysis modes over all workloads.
func Figure2(limits []int) ([]Fig2Point, error) {
	if limits == nil {
		limits = Figure2Limits
	}
	var out []Fig2Point
	for _, w := range workloads.All() {
		for _, limit := range limits {
			for _, mode := range []core.Mode{core.ModeNone, core.ModeField, core.ModeFieldArray} {
				b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
					InlineLimit: limit,
					Analysis:    core.Options{Mode: mode},
					Runtime:     vm.Config{Barrier: satb.ModeConditional},
				})
				if err != nil {
					return nil, fmt.Errorf("fig2 %s limit %d: %w", w.Name, limit, err)
				}
				res, err := b.Exec()
				if err != nil {
					return nil, err
				}
				s := res.Counters.Summarize()
				out = append(out, Fig2Point{
					Workload:     w.Name,
					Limit:        limit,
					Mode:         mode,
					ElimPct:      num.Pct(s.ElidedExecs, s.TotalExecs),
					CompileTime:  b.CompileTime(),
					AnalysisTime: b.StageTime[pipeline.StageAnalyze],
					CodeBytes:    b.BytecodeBytes,
				})
			}
		}
	}
	return out, nil
}

// FormatFigure2 renders the sweep as per-workload series.
func FormatFigure2(points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: inline limit vs dynamic elimination and compile time\n")
	fmt.Fprintf(&b, "%-7s %6s %5s %8s %12s %12s %10s\n",
		"bench", "limit", "mode", "% elim", "compile", "analysis", "bytecode")
	for _, p := range points {
		fmt.Fprintf(&b, "%-7s %6d %5s %8.1f %12v %12v %10d\n",
			p.Workload, p.Limit, p.Mode, p.ElimPct, p.CompileTime.Round(time.Microsecond),
			p.AnalysisTime.Round(time.Microsecond), p.CodeBytes)
	}
	return b.String()
}

// Fig3Row is one workload's compiled-code-size comparison.
type Fig3Row struct {
	Workload   string
	SizeB      int
	SizeF      int
	SizeA      int
	ReduceFPct float64
	ReduceAPct float64
}

// Figure3 measures compiled code size (bytecode + inline barrier
// sequences) under B, F, and A at the given inline level.
func Figure3(inlineLimit int) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, w := range workloads.All() {
		sizes := map[core.Mode]int{}
		for _, mode := range []core.Mode{core.ModeNone, core.ModeField, core.ModeFieldArray} {
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: inlineLimit,
				Analysis:    core.Options{Mode: mode},
			})
			if err != nil {
				return nil, fmt.Errorf("fig3 %s: %w", w.Name, err)
			}
			sizes[mode] = b.CompiledCodeSize()
		}
		rows = append(rows, Fig3Row{
			Workload:   w.Name,
			SizeB:      sizes[core.ModeNone],
			SizeF:      sizes[core.ModeField],
			SizeA:      sizes[core.ModeFieldArray],
			ReduceFPct: 100 * float64(sizes[core.ModeNone]-sizes[core.ModeField]) / float64(sizes[core.ModeNone]),
			ReduceAPct: 100 * float64(sizes[core.ModeNone]-sizes[core.ModeFieldArray]) / float64(sizes[core.ModeNone]),
		})
	}
	return rows, nil
}

// FormatFigure3 renders the code-size rows (paper: 2–6% reduction).
func FormatFigure3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: compiled code size by analysis mode (inline limit %d)\n", DefaultInlineLimit)
	fmt.Fprintf(&b, "%-7s %10s %10s %10s %10s %10s\n", "bench", "B bytes", "F bytes", "A bytes", "F % cut", "A % cut")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %10d %10d %10d %10.1f %10.1f\n",
			r.Workload, r.SizeB, r.SizeF, r.SizeA, r.ReduceFPct, r.ReduceAPct)
	}
	return b.String()
}

// NullOrSameRow reports the §4.3 extension's measured share.
type NullOrSameRow struct {
	Workload string
	Pct      float64
	PaperPct float64
}

// NullOrSame measures the share of barrier executions elided by the
// null-or-same extension on the workloads where the paper reports one.
func NullOrSame(inlineLimit int) ([]NullOrSameRow, error) {
	var rows []NullOrSameRow
	for _, w := range workloads.All() {
		_, res, err := buildAndRun(w, inlineLimit, core.Options{Mode: core.ModeFieldArray, NullOrSame: true})
		if err != nil {
			return nil, fmt.Errorf("null-or-same %s: %w", w.Name, err)
		}
		s := res.Counters.Summarize()
		if len(s.UnsoundSites) > 0 {
			return nil, fmt.Errorf("null-or-same %s: unsound elisions %v", w.Name, s.UnsoundSites)
		}
		rows = append(rows, NullOrSameRow{
			Workload: w.Name,
			Pct:      num.Pct(s.NullOrSameExecs, s.TotalExecs),
			PaperPct: w.NullOrSamePaperPct,
		})
	}
	return rows, nil
}

// FormatNullOrSame renders the §4.3 rows.
func FormatNullOrSame(rows []NullOrSameRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3 null-or-same stores (%% of barrier executions; measured | paper)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %6.1f | %4.1f\n", r.Workload, r.Pct, r.PaperPct)
	}
	return b.String()
}

// InterprocRow compares elimination without inlining, with and without
// interprocedural escape summaries, against the inlined baseline.
type InterprocRow struct {
	Workload       string
	Limit0Pct      float64 // no inlining, intra-procedural only
	Limit0SumPct   float64 // no inlining, with summaries
	InlinedBasePct float64 // inline limit 100 (the paper's setting)
	// DeltaPct is what the summaries buy: Limit0SumPct - Limit0Pct.
	DeltaPct float64
}

// Interprocedural measures how much of the inlining-dependent precision
// the escape summaries recover at inline limit 0 (the paper's §2.4 "lack
// of interprocedural techniques" future work).
func Interprocedural() ([]InterprocRow, error) {
	var rows []InterprocRow
	measure := func(w *workloads.Workload, limit int, opts core.Options) (float64, error) {
		_, res, err := buildAndRun(w, limit, opts)
		if err != nil {
			return 0, err
		}
		s := res.Counters.Summarize()
		if len(s.UnsoundSites) > 0 {
			return 0, fmt.Errorf("%s: unsound %v", w.Name, s.UnsoundSites)
		}
		return num.Pct(s.ElidedExecs, s.TotalExecs), nil
	}
	for _, w := range workloads.All() {
		plain, err := measure(w, 0, core.Options{Mode: core.ModeFieldArray})
		if err != nil {
			return nil, err
		}
		sum, err := measure(w, 0, core.Options{Mode: core.ModeFieldArray, Interprocedural: true})
		if err != nil {
			return nil, err
		}
		base, err := measure(w, DefaultInlineLimit, core.Options{Mode: core.ModeFieldArray})
		if err != nil {
			return nil, err
		}
		rows = append(rows, InterprocRow{
			Workload: w.Name, Limit0Pct: plain, Limit0SumPct: sum,
			InlinedBasePct: base, DeltaPct: sum - plain,
		})
	}
	return rows, nil
}

// FormatInterprocedural renders the summary-recovery rows.
func FormatInterprocedural(rows []InterprocRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interprocedural escape summaries (dynamic %% eliminated)\n")
	fmt.Fprintf(&b, "%-7s %14s %16s %8s %14s\n", "bench", "limit 0", "limit 0 + sums", "delta", "limit 100")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %14.1f %16.1f %+8.1f %14.1f\n",
			r.Workload, r.Limit0Pct, r.Limit0SumPct, r.DeltaPct, r.InlinedBasePct)
	}
	return b.String()
}

// RearrangeRow reports the §4.3 array-rearrangement extension's effect on
// one workload.
type RearrangeRow struct {
	Workload string
	// ElimPct is the plain mode-A elimination; WithRearrangePct adds the
	// swap stores covered by the optimistic retrace protocol.
	ElimPct          float64
	RearrangePct     float64
	WithRearrangePct float64
	Retraces         uint64
}

// Rearrangement measures how much of each workload's barrier traffic the
// swap-pair protocol covers, on top of the pre-null eliminations. Runs
// under concurrent SATB marking so retrace counts are real.
func Rearrangement(inlineLimit int) ([]RearrangeRow, error) {
	var rows []RearrangeRow
	for _, w := range workloads.All() {
		b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: inlineLimit,
			Analysis:    core.Options{Mode: core.ModeFieldArray, Rearrange: true},
			Runtime: vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 200,
				CheckInvariant:     true,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("rearrange %s: %w", w.Name, err)
		}
		res, err := b.Exec()
		if err != nil {
			return nil, err
		}
		s := res.Counters.Summarize()
		if len(s.UnsoundSites) > 0 {
			return nil, fmt.Errorf("rearrange %s: unsound %v", w.Name, s.UnsoundSites)
		}
		rows = append(rows, RearrangeRow{
			Workload:         w.Name,
			ElimPct:          num.Pct(s.ElidedExecs, s.TotalExecs),
			RearrangePct:     num.Pct(s.RearrangeExecs, s.TotalExecs),
			WithRearrangePct: num.Pct(s.ElidedExecs+s.RearrangeExecs, s.TotalExecs),
			Retraces:         s.Retraces,
		})
	}
	return rows, nil
}

// FormatRearrangement renders the §4.3 rearrangement rows.
func FormatRearrangement(rows []RearrangeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3 array rearrangements (optimistic retrace protocol)\n")
	fmt.Fprintf(&b, "%-7s %10s %12s %12s %10s\n", "bench", "% elim", "% rearrange", "% combined", "retraces")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %10.1f %12.1f %12.1f %10d\n",
			r.Workload, r.ElimPct, r.RearrangePct, r.WithRearrangePct, r.Retraces)
	}
	return b.String()
}
