package workloads

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

func buildA(t *testing.T, w *Workload) *pipeline.Build {
	t.Helper()
	b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return b
}

func runB(t *testing.T, b *pipeline.Build, cfg vm.Config) *vm.Result {
	t.Helper()
	res, err := b.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return res
}

func TestAllWorkloadsCompileAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := buildA(t, w)
			res := runB(t, b, vm.Config{Barrier: satb.ModeConditional})
			if len(res.Output) == 0 {
				t.Fatal("workload produced no checksum output")
			}
			sum := res.Counters.Summarize()
			if sum.TotalExecs == 0 {
				t.Fatal("workload executed no barriers")
			}
			if len(sum.UnsoundSites) != 0 {
				t.Fatalf("unsound elisions: %v", sum.UnsoundSites)
			}
			t.Logf("%s: output=%v barriers=%d elided=%.1f%% field/array=%.0f/%.0f fieldElim=%.1f%% arrayElim=%.1f%% potPreNull=%.1f%%",
				w.Name, res.Output, sum.TotalExecs,
				num.Pct(sum.ElidedExecs, sum.TotalExecs),
				num.Pct(sum.FieldExecs, sum.TotalExecs), num.Pct(sum.ArrayExecs, sum.TotalExecs),
				num.Pct(sum.FieldElided, sum.FieldExecs), num.Pct(sum.ArrayElided, sum.ArrayExecs),
				num.Pct(sum.PotPreNull, sum.TotalExecs))
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := buildA(t, w)
			r1 := runB(t, b, vm.Config{})
			r2 := runB(t, b, vm.Config{})
			if !reflect.DeepEqual(r1.Output, r2.Output) {
				t.Errorf("nondeterministic output: %v vs %v", r1.Output, r2.Output)
			}
			if r1.Steps != r2.Steps {
				t.Errorf("nondeterministic step count: %d vs %d", r1.Steps, r2.Steps)
			}
		})
	}
}

func TestWorkloadsOutputStableAcrossModes(t *testing.T) {
	// Analysis and barrier modes must never change program results.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			bB, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: 100})
			if err != nil {
				t.Fatal(err)
			}
			base := runB(t, bB, vm.Config{Barrier: satb.ModeNoBarrier})
			bA := buildA(t, w)
			for _, mode := range []satb.BarrierMode{satb.ModeConditional, satb.ModeAlwaysLog, satb.ModeCardMarking} {
				res := runB(t, bA, vm.Config{Barrier: mode})
				if !reflect.DeepEqual(res.Output, base.Output) {
					t.Errorf("mode %v changed output: %v vs %v", mode, res.Output, base.Output)
				}
			}
		})
	}
}

func TestWorkloadsSoundUnderConcurrentMarking(t *testing.T) {
	// Run every workload with elision enabled and real SATB concurrent
	// marking, verifying the snapshot invariant at every cycle.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("SATB invariant violated: %v", r)
				}
			}()
			b := buildA(t, w)
			res := runB(t, b, vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 150,
				MarkStepBudget:     8,
				Quantum:            32,
				CheckInvariant:     true,
			})
			if res.Cycles == 0 {
				t.Error("expected at least one marking cycle")
			}
			if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
				t.Errorf("unsound elisions: %v", s.UnsoundSites)
			}
		})
	}
}

func TestGetAndNames(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatalf("names = %v", Names())
	}
	w, err := Get("db")
	if err != nil || w.Name != "db" {
		t.Errorf("Get(db) = %v, %v", w, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

// TestWorkloadStoreMixes checks the qualitative Table 1 shapes each
// workload was designed for (tolerances are generous: the shape, not the
// digits, is the reproduction target).
func TestWorkloadStoreMixes(t *testing.T) {
	type bounds struct {
		elimLo, elimHi     float64 // total % eliminated
		fieldShareLo       float64
		fieldShareHi       float64
		fieldElimLo        float64
		arrayElimHi        float64 // for 0%-array benchmarks
		arrayElimLo        float64 // for mtrt/javac
		checkArrayElimZero bool
	}
	want := map[string]bounds{
		"jess":  {elimLo: 40, elimHi: 60, fieldShareLo: 40, fieldShareHi: 60, fieldElimLo: 95, checkArrayElimZero: true, arrayElimHi: 5},
		"db":    {elimLo: 4, elimHi: 20, fieldShareLo: 4, fieldShareHi: 20, fieldElimLo: 90, checkArrayElimZero: true, arrayElimHi: 5},
		"javac": {elimLo: 20, elimHi: 45, fieldShareLo: 80, fieldShareHi: 99, fieldElimLo: 20, arrayElimLo: 10},
		"mtrt":  {elimLo: 50, elimHi: 75, fieldShareLo: 35, fieldShareHi: 65, fieldElimLo: 60, arrayElimLo: 35},
		"jack":  {elimLo: 30, elimHi: 60, fieldShareLo: 60, fieldShareHi: 90, fieldElimLo: 45, checkArrayElimZero: true, arrayElimHi: 5},
		"jbb":   {elimLo: 12, elimHi: 40, fieldShareLo: 50, fieldShareHi: 80, fieldElimLo: 25, checkArrayElimZero: true, arrayElimHi: 5},
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			bw := want[w.Name]
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: 100,
				Analysis:    core.Options{Mode: core.ModeFieldArray},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := runB(t, b, vm.Config{Barrier: satb.ModeConditional})
			s := res.Counters.Summarize()
			elim := num.Pct(s.ElidedExecs, s.TotalExecs)
			fieldShare := num.Pct(s.FieldExecs, s.TotalExecs)
			fieldElim := num.Pct(s.FieldElided, s.FieldExecs)
			arrayElim := num.Pct(s.ArrayElided, s.ArrayExecs)
			if elim < bw.elimLo || elim > bw.elimHi {
				t.Errorf("total elim %.1f%% outside [%v,%v]", elim, bw.elimLo, bw.elimHi)
			}
			if fieldShare < bw.fieldShareLo || fieldShare > bw.fieldShareHi {
				t.Errorf("field share %.1f%% outside [%v,%v]", fieldShare, bw.fieldShareLo, bw.fieldShareHi)
			}
			if fieldElim < bw.fieldElimLo {
				t.Errorf("field elim %.1f%% below %v", fieldElim, bw.fieldElimLo)
			}
			if bw.checkArrayElimZero && arrayElim > bw.arrayElimHi {
				t.Errorf("array elim %.1f%% should be ~0", arrayElim)
			}
			if bw.arrayElimLo > 0 && arrayElim < bw.arrayElimLo {
				t.Errorf("array elim %.1f%% below %v", arrayElim, bw.arrayElimLo)
			}
		})
	}
}

// TestInterproceduralSoundOnWorkloads runs the summary-based analysis on
// every workload without inlining, under concurrent marking.
func TestInterproceduralSoundOnWorkloads(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("SATB invariant violated: %v", r)
				}
			}()
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: 0,
				Analysis:    core.Options{Mode: core.ModeFieldArray, Interprocedural: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := runB(t, b, vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 150,
				CheckInvariant:     true,
			})
			s := res.Counters.Summarize()
			if len(s.UnsoundSites) != 0 {
				t.Fatalf("unsound: %v", s.UnsoundSites)
			}
			t.Logf("%s limit 0 + summaries: elim=%.1f%%", w.Name, num.Pct(s.ElidedExecs, s.TotalExecs))
		})
	}
}
