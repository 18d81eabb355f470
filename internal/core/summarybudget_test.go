package core_test

import (
	"context"
	"testing"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// summarizedSrc calls, at inline limit 0, a fresh-returning factory, a
// method that writes its argument and a mutually recursive pair: every
// callee has more than one block and, with no budget, a summary better
// than the worst.
const summarizedSrc = `
class Obj { Obj f; int v; }
class T {
  static Obj make(int n) { Obj o = new Obj(); if (n > 0) { o.v = n; } return o; }
  static void fill(Obj a, int n) { if (n > 0) { a.v = n; } }
  static int even(int n) { int r = 1; if (n > 0) { r = T.odd(n - 1); } return r; }
  static int odd(int n) { int r = 0; if (n > 0) { r = T.even(n - 1); } return r; }
  static void main() {
    Obj a = T.make(3);
    a.f = new Obj();
    T.fill(a, 2);
    a.f.f = a;
    print(T.even(4));
  }
}
`

// TestSummariesObeyBudgetsAndContext: a summary fixed point stops on the
// caller's context and budgets exactly as a judging one does, and a
// stopped summary is the worst case. A cancelled interprocedural analysis
// returns promptly with every method cancelled; a visit budget of one
// makes every summary the worst case, and the build still runs clean
// under the elision oracle.
func TestSummariesObeyBudgetsAndContext(t *testing.T) {
	p := unanalyzed(t, "summarized", summarizedSrc, 0)
	methods := p.Methods()
	opts := core.Options{Mode: core.ModeFieldArray, Interprocedural: true}
	// summarized checks that sums has a summary for each callee and that
	// each is the worst case exactly when worst is set.
	summarized := func(what string, sums core.Summaries, worst bool) {
		t.Helper()
		n := 0
		for i, s := range sums {
			if s == nil {
				continue
			}
			n++
			if got := s.IsWorst(methods[i]); got != worst {
				t.Errorf("%s: summary of %s is worst %v, want %v: %+v", what, methods[i].QualifiedName(), got, worst, s)
			}
		}
		if n != 4 {
			t.Errorf("%s: %d methods summarized, want 4", what, n)
		}
	}
	summarized("no budget", core.SummariesCtx(context.Background(), p, opts), false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	summarized("cancelled", core.SummariesCtx(ctx, p, opts), true)
	for _, workers := range []int{1, 4} {
		start := time.Now()
		rep, err := core.AnalyzeProgramCtx(ctx, p, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("workers=%d: cancelled analysis took %v, want prompt abort", workers, elapsed)
		}
		for _, mr := range rep.Methods {
			if mr.Degraded != core.DegradeCancelled {
				t.Errorf("workers=%d: %s degraded %q, want %q", workers, mr.Method.QualifiedName(), mr.Degraded, core.DegradeCancelled)
			}
		}
	}

	starved := opts
	starved.MaxBlockVisits = 1
	summarized("MaxBlockVisits=1", core.SummariesCtx(context.Background(), p, starved), true)
	b, err := pipeline.Compile("summarized", summarizedSrc, pipeline.Options{InlineLimit: 0, Analysis: starved, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(vm.Config{Engine: vm.EngineFused, Barrier: satb.ModeConditional, GC: vm.GCSATB,
		TriggerEveryAllocs: 1, CheckInvariant: true, CheckElisions: true, MaxSteps: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
		t.Errorf("unsound elisions under MaxBlockVisits=1: %v", s.UnsoundSites)
	}
}
