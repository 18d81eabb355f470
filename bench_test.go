// Package satbelim's top-level benchmarks time the parts of the paper's
// evaluation that only a benchmark can measure:
//
//   - BenchmarkFig2_*    — compile+analysis time by inline limit and
//     analysis mode (Figure 2's time axis; the elim% metric is the other),
//   - BenchmarkAnalysisScaling_* — analysis time vs method size (§4.4),
//   - BenchmarkPipelineWorkers_* — the uncached pipeline's wall time by
//     fan-out width,
//   - BenchmarkAblation* — the design-choice ablations from DESIGN.md §5.
//
// Table 1, Table 2, Figure 3, §4.3's rearrangements and §2.4's summaries
// are deterministic counts, not timings: `go run ./cmd/satbbench` prints
// them, and internal/workloads' golden tables and internal/report's tests
// pin them.
//
// Run: go test -bench=. -benchmem .
package satbelim

import (
	"fmt"
	"strings"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

func runBuild(b *testing.B, bd *pipeline.Build, cfg vm.Config) *vm.Result {
	b.Helper()
	res, err := bd.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchFig2 times the compile pipeline (the figure's compile-time axis)
// at one (limit, mode) point, aggregated over all six workloads, and
// reports the dynamic elimination as a metric (the effectiveness axis).
func benchFig2(b *testing.B, limit int, mode core.Mode) {
	// The effectiveness axis (dynamic elimination) is measured once,
	// outside the timed loop; the timed loop measures the figure's
	// compile-time axis.
	var elided, total uint64
	for _, w := range workloads.All() {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: limit,
			Analysis:    core.Options{Mode: mode},
		})
		if err != nil {
			b.Fatal(err)
		}
		res := runBuild(b, bd, vm.Config{Barrier: satb.ModeConditional})
		s := res.Counters.Summarize()
		elided += s.ElidedExecs
		total += s.TotalExecs
	}
	// The pass above filled the build cache with these very keys; the timed
	// loop must compile, not hit.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			if _, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: limit,
				Analysis:    core.Options{Mode: mode},
				NoCache:     true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(num.Pct(elided, total), "elim%")
}

func BenchmarkFig2_Limit0_B(b *testing.B)   { benchFig2(b, 0, core.ModeNone) }
func BenchmarkFig2_Limit0_F(b *testing.B)   { benchFig2(b, 0, core.ModeField) }
func BenchmarkFig2_Limit0_A(b *testing.B)   { benchFig2(b, 0, core.ModeFieldArray) }
func BenchmarkFig2_Limit25_B(b *testing.B)  { benchFig2(b, 25, core.ModeNone) }
func BenchmarkFig2_Limit25_F(b *testing.B)  { benchFig2(b, 25, core.ModeField) }
func BenchmarkFig2_Limit25_A(b *testing.B)  { benchFig2(b, 25, core.ModeFieldArray) }
func BenchmarkFig2_Limit50_B(b *testing.B)  { benchFig2(b, 50, core.ModeNone) }
func BenchmarkFig2_Limit50_F(b *testing.B)  { benchFig2(b, 50, core.ModeField) }
func BenchmarkFig2_Limit50_A(b *testing.B)  { benchFig2(b, 50, core.ModeFieldArray) }
func BenchmarkFig2_Limit100_B(b *testing.B) { benchFig2(b, 100, core.ModeNone) }
func BenchmarkFig2_Limit100_F(b *testing.B) { benchFig2(b, 100, core.ModeField) }
func BenchmarkFig2_Limit100_A(b *testing.B) { benchFig2(b, 100, core.ModeFieldArray) }
func BenchmarkFig2_Limit200_B(b *testing.B) { benchFig2(b, 200, core.ModeNone) }
func BenchmarkFig2_Limit200_F(b *testing.B) { benchFig2(b, 200, core.ModeField) }
func BenchmarkFig2_Limit200_A(b *testing.B) { benchFig2(b, 200, core.ModeFieldArray) }

// genMethodSource builds a class whose work method has roughly n
// "statements" (alternating field and array initializing stores inside a
// loop nest), for the §4.4 analysis-time scaling measurement.
func genMethodSource(n int) string {
	var sb strings.Builder
	sb.WriteString("class T { T a; T b; T c; T(int x) { } }\n")
	sb.WriteString("class Gen {\n  static void work(int p) {\n")
	sb.WriteString("    T[] arr = new T[p];\n")
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, "    T t%d = new T(%d);\n", i, i)
		case 1:
			fmt.Fprintf(&sb, "    t%d.a = new T(%d);\n", i-1, i)
		case 2:
			fmt.Fprintf(&sb, "    t%d.b = t%d.a;\n", i-2, i-2)
		default:
			fmt.Fprintf(&sb, "    if (p > %d) { t%d.c = t%d.b; }\n", i, i-3, i-3)
		}
	}
	sb.WriteString("    for (int i = 0; i < p; i = i + 1) arr[i] = new T(i);\n")
	sb.WriteString("  }\n  static void main() { Gen.work(3); }\n}\n")
	return sb.String()
}

// benchAnalysisScaling times AnalyzeProgram on generated methods of
// growing size (§4.4's analysis-time-vs-code-size data).
func benchAnalysisScaling(b *testing.B, stmts int) {
	src := genMethodSource(stmts)
	bd, err := pipeline.Compile("gen", src, pipeline.Options{InlineLimit: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeProgram(bd.Program, core.Options{Mode: core.ModeFieldArray}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bd.BytecodeBytes), "bytecodeBytes")
}

func BenchmarkAnalysisScaling_50(b *testing.B)  { benchAnalysisScaling(b, 50) }
func BenchmarkAnalysisScaling_100(b *testing.B) { benchAnalysisScaling(b, 100) }
func BenchmarkAnalysisScaling_200(b *testing.B) { benchAnalysisScaling(b, 200) }
func BenchmarkAnalysisScaling_400(b *testing.B) { benchAnalysisScaling(b, 400) }
func BenchmarkAnalysisScaling_800(b *testing.B) { benchAnalysisScaling(b, 800) }

// benchPipelineWorkers times the full, uncached pipeline over all six
// workloads at a fixed fan-out width. Comparing the _1/_2/_4/_8 variants
// gives the parallel-speedup curve of the per-method verify+analysis
// stages as wall time per sweep; the frontend and inliner stay sequential,
// so this is the end-to-end (Amdahl-limited) number.
func benchPipelineWorkers(b *testing.B, workers int) {
	opts := pipeline.Options{
		InlineLimit: report.DefaultInlineLimit,
		Analysis:    core.Options{Mode: core.ModeFieldArray},
		Workers:     workers,
		NoCache:     true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			if _, err := pipeline.Compile(w.Name, w.Source, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPipelineWorkers_1(b *testing.B) { benchPipelineWorkers(b, 1) }
func BenchmarkPipelineWorkers_2(b *testing.B) { benchPipelineWorkers(b, 2) }
func BenchmarkPipelineWorkers_4(b *testing.B) { benchPipelineWorkers(b, 4) }
func BenchmarkPipelineWorkers_8(b *testing.B) { benchPipelineWorkers(b, 8) }

// benchAblation measures mode-A elimination across all workloads under
// one ablated analysis configuration (DESIGN.md §5).
func benchAblation(b *testing.B, opts core.Options) {
	var elided, total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elided, total = 0, 0
		for _, w := range workloads.All() {
			bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: report.DefaultInlineLimit,
				Analysis:    opts,
			})
			if err != nil {
				b.Fatal(err)
			}
			res := runBuild(b, bd, vm.Config{Barrier: satb.ModeConditional})
			s := res.Counters.Summarize()
			if len(s.UnsoundSites) > 0 {
				b.Fatalf("%s: unsound %v", w.Name, s.UnsoundSites)
			}
			elided += s.ElidedExecs
			total += s.TotalExecs
		}
	}
	b.ReportMetric(num.Pct(elided, total), "elim%")
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, core.Options{Mode: core.ModeFieldArray})
}

func BenchmarkAblationSingleRef(b *testing.B) {
	benchAblation(b, core.Options{Mode: core.ModeFieldArray, SingleRefPerSite: true})
}

func BenchmarkAblationFlowInsensitiveEscape(b *testing.B) {
	benchAblation(b, core.Options{Mode: core.ModeFieldArray, FlowInsensitiveEscape: true})
}

func BenchmarkAblationNoStride(b *testing.B) {
	benchAblation(b, core.Options{Mode: core.ModeFieldArray, NoStrideInference: true})
}
