package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// unanalyzed compiles src up to and including verification.
func unanalyzed(t *testing.T, name, src string, limit int) *bytecode.Program {
	t.Helper()
	b, err := pipeline.Compile(name, src, pipeline.Options{InlineLimit: limit, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return b.Program
}

// invokeTargets is the set of methods some OpInvoke of p names.
func invokeTargets(p *bytecode.Program) map[bytecode.MethodRef]bool {
	out := map[bytecode.MethodRef]bool{}
	for _, m := range p.Methods() {
		for pc := range m.Code {
			if m.Code[pc].Op != bytecode.OpInvoke {
				continue
			}
			if ref := m.Operand(pc).Method(); p.Method(ref) != nil {
				out[ref] = true
			}
		}
	}
	return out
}

// analysisOutcome is everything an analysis run decides: each method's
// report and each instruction's verdict.
func analysisOutcome(t *testing.T, p *bytecode.Program, opts core.Options, workers int) ([]core.MethodReport, []bytecode.Verdict) {
	t.Helper()
	rep, err := core.AnalyzeProgramCtx(context.Background(), p, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	var reps []core.MethodReport
	var verdicts []bytecode.Verdict
	vt := p.Verdicts()
	for n, mr := range rep.Methods {
		reps = append(reps, *mr)
		for pc := range mr.Method.Code {
			verdicts = append(verdicts, vt.At(n, pc))
		}
	}
	return reps, verdicts
}

// TestOnDemandSummariesChangeNothing: summarizing only the methods some
// invoke names yields the verdicts and reports of summarizing every method,
// and the summaries it keeps are the same ones.
func TestOnDemandSummariesChangeNothing(t *testing.T) {
	type job struct {
		name, src string
		limit     int
	}
	var jobs []job
	for _, w := range workloads.All() {
		for _, limit := range []int{0, 25, 100} {
			jobs = append(jobs, job{fmt.Sprintf("%s@%d", w.Name, limit), w.Source, limit})
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		jobs = append(jobs, job{fmt.Sprintf("seed%d", seed), progen.Generate(seed, progen.CampaignConfig()), int(seed%3) * 25})
	}
	opts := core.Options{Mode: core.ModeFieldArray, Interprocedural: true, NullOrSame: true}
	elided, lookups := 0, 0
	for _, j := range jobs {
		p := unanalyzed(t, j.name, j.src, j.limit)
		all := core.ComputeAllSummaries(p, opts)
		onDemand, err := core.ComputeSummariesParallel(p, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		targets := invokeTargets(p)
		for i, sum := range onDemand {
			ref := p.Methods()[i].Ref()
			if (sum != nil) != targets[ref] {
				t.Errorf("%s: %s has a summary: %t, something invokes it: %t", j.name, ref, sum != nil, targets[ref])
			}
			if sum != nil && !reflect.DeepEqual(sum, all[i]) {
				t.Errorf("%s: %s summarized on demand as %+v, among all methods as %+v", j.name, ref, sum, all[i])
			}
		}

		withAll := opts
		withAll.Summaries = all
		wantReps, wantVerdicts := analysisOutcome(t, p, withAll, 1)
		gotReps, gotVerdicts := analysisOutcome(t, p, opts, 2)
		if !reflect.DeepEqual(gotVerdicts, wantVerdicts) {
			t.Errorf("%s: verdicts differ with on-demand summaries", j.name)
		}
		if !reflect.DeepEqual(gotReps, wantReps) {
			t.Errorf("%s: method reports differ with on-demand summaries:\n got %+v\nwant %+v", j.name, gotReps, wantReps)
		}
		for i := range gotReps {
			elided += gotReps[i].FieldElided + gotReps[i].ArrayElided
			lookups += gotReps[i].SummaryCalls
		}
	}
	if elided == 0 || lookups == 0 {
		t.Errorf("corpus proves nothing: %d elisions, %d summary lookups", elided, lookups)
	}
}

// TestSummariesCoverInvokedComponentsOnly: the key set is the members of
// the components some invoke reaches. main, a thread body and a callee the
// inliner swallowed have no entry — a lookup is nil, the worst case — while
// both arms of a mutual recursion entered from outside do.
func TestSummariesCoverInvokedComponentsOnly(t *testing.T) {
	src := `
class T { int v; T f; void run() { this.v = 1; } }
class M {
    static int tiny(T t) { return t.v; }
    static int ping(T t, int n) { if (n <= 0) return t.v; return M.pong(t, n - 1); }
    static int pong(T t, int n) { if (n <= 0) return 0; return M.ping(t, n - 1) + M.tiny(t); }
    static int big(T t) {
        int s = 0; int i = 0;
        while (i < 10) { s = s + M.ping(t, i) * 3 + t.v * i - s / 7 + i * i; i = i + 1; }
        while (i > 0) { s = s - M.pong(t, i) * 5 + t.v * i - s / 3 + i * i; i = i - 1; }
        return s;
    }
    static void main() { T t = new T(); spawn t.run(); print(M.big(t)); }
}
`
	ref := func(class, name string) bytecode.MethodRef { return bytecode.MethodRef{Class: class, Name: name} }
	p := unanalyzed(t, "cover", src, 25)
	if targets := invokeTargets(p); targets[ref("M", "tiny")] || !targets[ref("M", "big")] {
		t.Fatalf("the test needs tiny inlined away and big kept; invoked: %v", targets)
	}
	sums, err := core.ComputeSummariesParallel(p, core.Options{Mode: core.ModeFieldArray, Interprocedural: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []bytecode.MethodRef{ref("M", "big"), ref("M", "ping"), ref("M", "pong")} {
		if sums.Of(p, want) == nil {
			t.Errorf("no summary for invoked method %s", want)
		}
	}
	for _, absent := range []bytecode.MethodRef{ref("M", "main"), ref("T", "run"), ref("M", "tiny")} {
		if p.Method(absent) == nil {
			t.Fatalf("%s is not in the program", absent)
		}
		if sum := sums.Of(p, absent); sum != nil {
			t.Errorf("%s is never invoked but has summary %+v", absent, sum)
		}
	}
	n := 0
	for _, sum := range sums {
		if sum != nil {
			n++
		}
	}
	if n != 3 {
		t.Errorf("%d summaries, want 3: %v", n, sums)
	}
}

// TestPrecomputedSummariesMatchInternal: a caller that computes the
// summaries itself and hands them over as Options.Summaries — what the
// benchmark's stage probes do to time the two stages apart — gets the
// verdicts and reports of the run that computes them internally. The two
// calls number the program's fields separately, so the summaries' ids must
// mean the same fields in both.
func TestPrecomputedSummariesMatchInternal(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray, Interprocedural: true}
	lookups := 0
	for _, w := range workloads.All() {
		p := unanalyzed(t, w.Name, w.Source, 0)
		wantReps, wantVerdicts := analysisOutcome(t, p, opts, 2)

		sums, err := core.ComputeSummariesParallel(p, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		handed := opts
		handed.Summaries = sums
		gotReps, gotVerdicts := analysisOutcome(t, p.Clone(), handed, 2)
		if !reflect.DeepEqual(gotVerdicts, wantVerdicts) {
			t.Errorf("%s: verdicts differ with precomputed summaries", w.Name)
		}
		for i := range gotReps {
			// The clone's methods are copies; everything else must agree.
			gotReps[i].Method = wantReps[i].Method
			lookups += gotReps[i].SummaryCalls
		}
		if !reflect.DeepEqual(gotReps, wantReps) {
			t.Errorf("%s: method reports differ with precomputed summaries:\n got %+v\nwant %+v", w.Name, gotReps, wantReps)
		}
	}
	if lookups == 0 {
		t.Error("no call site was judged with a summary in hand")
	}
}
