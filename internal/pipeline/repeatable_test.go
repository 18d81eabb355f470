package pipeline

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// analysisPrint renders everything the fixed point decides about a build:
// per method its visit count and degradation, and every elision bit.
func analysisPrint(b *Build) string {
	var sb strings.Builder
	vt := b.Program.Verdicts()
	for n, mr := range b.Report.Methods {
		fmt.Fprintf(&sb, "%s visits=%d degraded=%q", mr.Method.QualifiedName(), mr.BlockVisits, mr.Degraded)
		for pc := range mr.Method.Code {
			if v := vt.At(n, pc); v != bytecode.VerdictNone {
				fmt.Fprintf(&sb, " %d:%v", pc, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestAnalysisRepeatable pins that the analysis is a function of its input
// alone: a state merge visits its components in slot order under one
// shared stride context, so which component first names a stride — and
// with it every visit count and verdict — cannot depend on map iteration
// order, scheduling or the worker count. The corpus is the benchmark's
// compile_cold sweep (bench/workloads.go): the six workloads at inline
// limit 100, again at limit 0 with summaries, and twelve generated
// programs.
func TestAnalysisRepeatable(t *testing.T) {
	type job struct {
		name, src string
		opts      Options
	}
	mode := func(limit int, interproc bool) Options {
		return Options{
			InlineLimit: limit,
			Analysis:    core.Options{Mode: core.ModeFieldArray, Interprocedural: interproc},
			NoCache:     true,
		}
	}
	var jobs []job
	for _, w := range workloads.All() {
		jobs = append(jobs, job{w.Name, w.Source, mode(100, false)}, job{w.Name + "_ip", w.Source, mode(0, true)})
	}
	for i := 0; i < 12; i++ {
		src := progen.Generate(20050320+int64(i), progen.CampaignConfig())
		jobs = append(jobs, job{fmt.Sprintf("gen%02d", i), src, mode(100, true)})
	}
	repeats := 10
	if testing.Short() {
		repeats = 3
	}
	for _, j := range jobs {
		want := ""
		for _, workers := range []int{1, 4} {
			for rep := 0; rep < repeats; rep++ {
				opts := j.opts
				opts.Workers = workers
				b, err := Compile(j.name, j.src, opts)
				if err != nil {
					t.Fatalf("%s: %v", j.name, err)
				}
				got := analysisPrint(b)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: workers=%d repeat %d differs from the first compile:\n%s\nvs\n%s", j.name, workers, rep, got, want)
				}
			}
		}
	}
}

// stateSizeDegrades pins, for the workloads at inline limit 100, the
// largest power-of-two MaxStateSize at which each method still degrades
// with DegradeStateSize (methods not listed never do, down to a budget of
// 2). The figures were taken from the map-based state this representation
// replaced: a state's footprint counts its present σ, Len and NR entries —
// explicit defaults included — and satbd quantises the budget by halving
// into its cache keys, so a representation that counted differently would
// change which cached builds are degraded.
var stateSizeDegrades = map[string]map[string]int{
	"jess":  {"Jess.main": 8, "Jess.matchAndActivate": 4},
	"db":    {"DBBench.build": 8, "DBBench.extract": 2, "DBBench.main": 2},
	"javac": {"Javac.buildTree": 2, "Javac.localScope": 2, "Javac.main": 16, "Javac.registeredScope": 2},
	"mtrt":  {"Mtrt.main": 16, "Vec.<init>": 2, "Worker.run": 32},
	"jack":  {"Jack.cachedScan": 2, "Jack.lex": 8, "Jack.main": 8},
	"jbb":   {"District.<init>": 4, "JBB.deliver": 2, "JBB.main": 8, "JBB.newOrder": 8, "Order.<init>": 2},
}

func TestStateSizeDegradationPinned(t *testing.T) {
	for _, w := range workloads.All() {
		pin, ok := stateSizeDegrades[w.Name]
		if !ok {
			t.Errorf("%s: no pinned budgets", w.Name)
			continue
		}
		for budget := 2; budget <= 64; budget *= 2 {
			b, err := Compile(w.Name, w.Source, Options{
				InlineLimit: 100,
				Analysis:    core.Options{Mode: core.ModeFieldArray, MaxStateSize: budget},
				NoCache:     true,
			})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, mr := range b.Report.Methods {
				name := mr.Method.QualifiedName()
				if got, want := mr.Degraded == core.DegradeStateSize, pin[name] >= budget; got != want {
					t.Errorf("%s MaxStateSize=%d: %s degraded=%t (%q), want %t", w.Name, budget, name, got, mr.Degraded, want)
				}
			}
		}
	}
}

// TestNoClockBelowThePipeline pins where a result may come from: below
// this package, a compile, analysis, run or collection depends on the
// program, the options and the caller's context, never on the clock. No
// non-test file of the layers below imports time; a wall-clock bound
// reaches them only as a context deadline, and timing a stage is its
// caller's business (Build's stage times). internal/obs may read the
// clock: tracing only observes (TestTracingIsObservationOnly).
func TestNoClockBelowThePipeline(t *testing.T) {
	for _, pkg := range []string{"core", "domain", "vm", "gc", "heap", "satb", "bytecode", "verifier", "inline", "codegen", "minijava", "intval"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, "../"+pkg, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil || len(pkgs) != 1 {
			t.Fatalf("parsing ../%s: %d packages, %v", pkg, len(pkgs), err)
		}
		for _, files := range pkgs {
			for _, file := range files.Files {
				for _, imp := range file.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
						t.Errorf("%s imports time: bound the work structurally or by the caller's context", fset.Position(imp.Pos()))
					}
				}
			}
		}
	}
}
