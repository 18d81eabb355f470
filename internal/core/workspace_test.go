package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
	"satbelim/internal/workloads"
)

// analysisRun is what one analysis of a program produced: each method's
// report and verdict row, by method number, and the summaries judging read.
type analysisRun struct {
	reps []*MethodReport
	rows [][]bytecode.Verdict
	sums Summaries
}

// kept is one method's converged join entry states, as the fixed point
// left them and as copied right then.
type kept struct {
	method string
	blocks []int
	entry  []*state
	copies []*state
}

// runWith analyzes p on one worker — every callgraph component summarized
// bottom-up when opts asks for summaries, then every method judged in
// order — taking each workspace from next: one per component and one per
// method, or the same one throughout. Beside each judging analysis it runs
// the method's fixed point and judge pass again and keeps the join entry
// states, which runWith's caller checks after the workspace has moved on.
// It fails at once if a join's entry is a workspace state, or if the
// workspace's states — scratch, spare and the free list's, which hold the
// single-predecessor entries while they are pending — are not the ones it
// had before, grown by what this method needed.
func runWith(t *testing.T, p *bytecode.Program, opts Options, order []int, next func() *workspace) (analysisRun, []kept) {
	t.Helper()
	px := newProgramIndex(p, opts)
	methods := p.Methods()
	run := analysisRun{reps: make([]*MethodReport, len(methods)), rows: make([][]bytecode.Verdict, len(methods))}
	if opts.Interprocedural {
		cond := Condense(BuildCallGraph(p))
		run.sums = make(Summaries, len(cond.Graph.Methods))
		for i, m := range cond.Graph.Methods {
			run.sums[i] = optimisticSummary(px.syms, m)
		}
		for ci := range cond.SCCs {
			processSCC(context.Background(), px, next(), opts, cond, ci, run.sums)
		}
		opts.Summaries = run.sums
	}
	var keep []kept
	for _, i := range order {
		ws := next()
		rep, row, err := analyzeMethod(context.Background(), px, ws, i, opts, "")
		if err != nil {
			t.Fatal(err)
		}
		run.reps[i], run.rows[i] = rep, row
		idx, _ := px.of(i)
		pool := slices.Clone(ws.extra)
		a := newAnalyzer(context.Background(), px, ws, methods[i], idx, opts)
		a.summaries = opts.Summaries
		if a.fixpoint() != DegradeNone {
			t.Fatalf("%s degraded", methods[i].QualifiedName())
		}
		k := kept{method: methods[i].QualifiedName()}
		for id, s := range a.entry {
			if s == nil {
				continue
			}
			if s == &ws.scratch || s == &ws.spare || slices.Contains(ws.extra, s) {
				t.Fatalf("%s: block %d's entry state is the workspace's", k.method, id)
			}
			c := &state{tab: s.tab}
			c.copyFrom(s)
			k.blocks = append(k.blocks, id)
			k.entry, k.copies = append(k.entry, s), append(k.copies, c)
		}
		a.judge()
		if !slices.Equal(ws.extra[:len(pool)], pool) {
			t.Fatalf("%s: the workspace's states were replaced", k.method)
		}
		for _, s := range ws.extra {
			if s.tab != &ws.slots {
				t.Fatalf("%s: a workspace state reads another worker's slot table", k.method)
			}
		}
		keep = append(keep, k)
	}
	return run, keep
}

// sameState reports whether two states hold the same entries, position by
// position.
func sameState(a, b *state) bool {
	return slices.EqualFunc(a.locals, b.locals, Value.Equal) &&
		slices.EqualFunc(a.stack, b.stack, Value.Equal) &&
		slices.EqualFunc(a.sigma, b.sigma, Value.Equal) &&
		slices.EqualFunc(a.length, b.length, intval.IntVal.Equal) &&
		slices.EqualFunc(a.nr, b.nr, intval.Range.Equal) &&
		a.nl.Equal(b.nl) && a.intTainted.Equal(b.intTainted)
}

// TestWorkspaceReuseIsInvisible analyzes every method of the six workloads
// — at inline limit 100 in mode A, and at limit 0 with summaries — three
// ways: with a fresh workspace for every component and method, through one
// workspace in program order, and through one workspace judging in reverse
// program order. Reports, verdict rows and summaries must not tell the
// three apart, and the fresh run must match AnalyzeProgramCtx. Every
// method's converged join entry states must still hold what its fixed point
// left in them after the workspace has served every later method: a join's
// entry state belongs to its method, never to the worker, while a
// single-predecessor block's entry is one of the worker's states, lent to
// it only while the block is pending and reused by every later method.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	for _, w := range workloads.All() {
		for _, cfg := range []struct {
			limit int
			opts  Options
		}{
			{100, Options{Mode: ModeFieldArray}},
			{0, Options{Mode: ModeFieldArray, Interprocedural: true}},
		} {
			name := fmt.Sprintf("%s@%d", w.Name, cfg.limit)
			p := compileSrc(t, w.Source, cfg.limit)
			forward := make([]int, len(p.Methods()))
			for i := range forward {
				forward[i] = i
			}
			reverse := slices.Clone(forward)
			slices.Reverse(reverse)
			shared := func() func() *workspace {
				ws := newWorkspace()
				return func() *workspace { return ws }
			}

			fresh, freshKept := runWith(t, p, cfg.opts, forward, newWorkspace)
			inOrder, inOrderKept := runWith(t, p, cfg.opts, forward, shared())
			reversed, reversedKept := runWith(t, p, cfg.opts, reverse, shared())
			for _, other := range []struct {
				how string
				run analysisRun
			}{{"one workspace in program order", inOrder}, {"one workspace in reverse order", reversed}} {
				for i := range fresh.reps {
					if !reflect.DeepEqual(fresh.reps[i], other.run.reps[i]) {
						t.Errorf("%s: %s: %s reports %+v, with fresh workspaces %+v", name, p.Methods()[i].QualifiedName(), other.how, *other.run.reps[i], *fresh.reps[i])
					}
					if !slices.Equal(fresh.rows[i], other.run.rows[i]) {
						t.Errorf("%s: %s: %s verdicts %v, with fresh workspaces %v", name, p.Methods()[i].QualifiedName(), other.how, other.run.rows[i], fresh.rows[i])
					}
				}
				if !reflect.DeepEqual(fresh.sums, other.run.sums) {
					t.Errorf("%s: summaries through %s differ from those with fresh workspaces", name, other.how)
				}
			}
			for _, keep := range [][]kept{freshKept, inOrderKept, reversedKept} {
				for _, k := range keep {
					for j := range k.entry {
						if !sameState(k.entry[j], k.copies[j]) {
							t.Errorf("%s: %s: block %d's entry state changed after the method was analyzed", name, k.method, k.blocks[j])
						}
					}
				}
			}

			rep, err := AnalyzeProgramCtx(context.Background(), p, cfg.opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rep.Methods {
				if !reflect.DeepEqual(r, fresh.reps[i]) || !slices.Equal(p.Verdicts().Of(i), fresh.rows[i]) {
					t.Errorf("%s: %s: this test's analysis is not AnalyzeProgramCtx's", name, r.Method.QualifiedName())
				}
			}
		}
	}
}
