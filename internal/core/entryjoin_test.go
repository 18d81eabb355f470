package core_test

import (
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// entryLoopSrc is a method whose first statement is a loop: block 0 is the
// loop header, and its only predecessor is the back edge. Taking that
// edge's state as the header's entry, instead of merging it with the
// method entry, forgets that o arrives non-null-fielded (main stored a.f =
// a), and o.f = o would be judged pre-null.
const entryLoopSrc = `
class Obj { Obj f; }
class T {
  static int k;
  static void g(Obj o, int n) { while (T.k < n) { o.f = o; o = new Obj(); T.k = T.k + 1; } }
  static void main() { Obj a = new Obj(); a.f = a; T.g(a, 3); print(1); }
}
`

// countingLoopSrc is the same shape with an induction variable: merging
// the entry with the back edge widens n, where overwriting block 0 with
// the back edge's state chased n - 1 down until the visit budget ran out.
const countingLoopSrc = `
class T {
  static void g(int n) { while (n > 0) { n = n - 1; } }
  static void main() { T.g(5); print(1); }
}
`

// TestEntryBlockIsAJoin: the entry block's state is the join of the
// initial state with every edge into it, in both analysis modes, with and
// without summaries. The loop-carried store keeps its barrier and runs
// clean under the oracle and the snapshot check on all three engines, and
// the counting loop converges without degrading.
func TestEntryBlockIsAJoin(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeField, core.ModeFieldArray} {
		for _, interproc := range []bool{false, true} {
			opts := pipeline.Options{InlineLimit: 0, NoCache: true,
				Analysis: core.Options{Mode: mode, Interprocedural: interproc}}
			b, err := pipeline.Compile("entryloop", entryLoopSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, mr := range b.Report.Methods {
				if mr.Method.QualifiedName() == "T.g" && mr.FieldElided != 0 {
					t.Errorf("mode %v, interprocedural %v: T.g elides %d of %d field barriers, want none",
						mode, interproc, mr.FieldElided, mr.FieldSites)
				}
			}
			for _, engine := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
				res, err := b.Run(vm.Config{Engine: engine, Barrier: satb.ModeConditional, GC: vm.GCSATB,
					TriggerEveryAllocs: 1, CheckInvariant: true, CheckElisions: true, MaxSteps: 100_000})
				if err != nil {
					t.Fatalf("mode %v, interprocedural %v, engine %v: %v", mode, interproc, engine, err)
				}
				if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
					t.Errorf("mode %v, interprocedural %v, engine %v: unsound elisions %v", mode, interproc, engine, s.UnsoundSites)
				}
			}

			b, err = pipeline.Compile("countingloop", countingLoopSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, mr := range b.Report.Methods {
				if mr.Degraded != core.DegradeNone || mr.BlockVisits > 20 {
					t.Errorf("mode %v, interprocedural %v: %s degraded %q after %d block visits",
						mode, interproc, mr.Method.QualifiedName(), mr.Degraded, mr.BlockVisits)
				}
			}
		}
	}
}

// TestJudgedStatesAreInductive: the judge checks the states it judges
// against the fixed point's joins — the initial state and every out state
// must lie in the entry of each join they flow into — before any program
// runs. On the entry-loop method, whose block 0 joins the initial state
// with its back edge, and on the counting loop, no method degrades for it,
// in either mode, with or without summaries and the swap detector.
func TestJudgedStatesAreInductive(t *testing.T) {
	for _, src := range []string{entryLoopSrc, countingLoopSrc} {
		for _, mode := range []core.Mode{core.ModeField, core.ModeFieldArray} {
			for _, ext := range []bool{false, true} {
				opts := pipeline.Options{InlineLimit: 0, NoCache: true,
					Analysis: core.Options{Mode: mode, Interprocedural: ext, Rearrange: ext, NullOrSame: ext}}
				b, err := pipeline.Compile("entry", src, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, mr := range b.Report.Methods {
					if mr.Degraded == core.DegradeNotInductive {
						t.Errorf("mode %v, extensions %v: %s degraded %s: %s",
							mode, ext, mr.Method.QualifiedName(), mr.Degraded, mr.DegradeDetail)
					}
				}
			}
		}
	}
}
