package core

import (
	"context"

	"satbelim/internal/bytecode"
	"satbelim/internal/domain"
)

// Interprocedural escape summaries (the lattice is the domain's) are
// scheduled bottom-up over the callgraph's SCC condensation (see
// bytecode/callgraph.go): acyclic components converge in one pass because their
// callees are final; cyclic components (recursion) iterate to a fixed
// point from the optimistic start under the monotone-compromise
// guarantee — facts only worsen, so the iteration computes the least
// fixed point, which is what lets read-only recursion stay
// uncompromised. One goroutine walks the components in that order, so each
// component reads only callee summaries that are already final.

// maxSummaryRounds is the default per-SCC fixed-point round budget
// (Options.MaxSummaryRoundsPerSCC overrides it). Summary facts move
// monotonically, so a cyclic component of k methods converges within a
// small multiple of its fact count; the cap is a safety valve, and
// exceeding it degrades that component — and only that component — to
// the worst case. Degradation is structural (a property of the program
// and options alone), so degraded results stay deterministic and
// cacheable.
const maxSummaryRounds = 40

// ComputeSummariesParallel derives escape summaries for every method some
// OpInvoke names, one callgraph SCC at a time in bottom-up (reverse
// topological) order. A method nothing invokes — main, a thread body, a
// callee the inliner swallowed — has no entry: a lookup yields nil, which
// the invoke transfer function treats as the worst case. opts is the
// analysis configuration the summaries will be used with (ablations apply
// to the summary computation too). workers is unused: summaries run on the
// calling goroutine, and the argument stays for callers that size it. A
// method that cannot be summarized gets the worst summary, so the error is
// always nil.
func ComputeSummariesParallel(p *bytecode.Program, opts Options, workers int) (domain.Summaries, error) {
	return computeSummaries(context.Background(), newProgramIndex(p, opts), opts), nil
}

// computeSummaries is ComputeSummariesParallel under the caller's ctx and
// over a caller-owned program index, which it leaves holding the index of
// every method it summarized. A summary fixed point stops on the budgets
// of opts and on ctx as a judging one does (newAnalyzer), and a stopped
// method gets the worst summary.
func computeSummaries(ctx context.Context, px *programIndex, opts Options) domain.Summaries {
	cond := Condense(BuildCallGraph(px.prog))
	// A component is needed when it holds the callee of some invoke. Its own
	// callees are needed by the same rule, so every component a needed one
	// calls into is needed too, and comes before it in cond.SCCs.
	needed := make([]bool, len(cond.SCCs))
	sums := make(domain.Summaries, len(cond.Graph.Methods))
	for _, callees := range cond.Graph.Callees {
		for _, j := range callees {
			if ci := cond.CompOf[j]; !needed[ci] {
				needed[ci] = true
				for _, v := range cond.SCCs[ci].Members {
					sums[v] = domain.OptimisticSummary(px.syms, cond.Graph.Methods[v])
				}
			}
		}
	}
	ws := newWorkspace()
	for ci := range cond.SCCs {
		if needed[ci] {
			processSCC(ctx, px, ws, opts, cond, ci, sums)
		}
	}
	return sums
}

// processSCC finalizes the summaries of one component on workspace ws.
// Acyclic components need exactly one pass (their callees are already
// final); cyclic ones iterate members in program order until nothing
// worsens.
func processSCC(ctx context.Context, px *programIndex, ws *workspace, opts Options, cond *Condensation, ci int, sums domain.Summaries) {
	scc := &cond.SCCs[ci]
	if !scc.Cyclic {
		v := scc.Members[0]
		sums[v].Worsen(summarizeMethod(ctx, px, ws, cond.Graph.Methods[v], v, opts, sums))
		return
	}
	rounds := opts.MaxSummaryRoundsPerSCC
	if rounds <= 0 {
		rounds = maxSummaryRounds
	}
	for round := 0; round < rounds; round++ {
		changed := false
		for _, v := range scc.Members {
			if sums[v].Worsen(summarizeMethod(ctx, px, ws, cond.Graph.Methods[v], v, opts, sums)) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
	// Round budget exceeded: degrade this component — and only this
	// component — to the sound worst case.
	for _, v := range scc.Members {
		sums[v].DegradeToWorst()
	}
}

// summarizeMethod runs the analysis in summary mode over m, node `node` of
// the callgraph, and reads its summary off the converged fixed point. The
// method's index is built on first use, where the component's later rounds
// and the caller's judging pass find it. A fixed point stopped by a budget
// or by ctx yields the worst summary.
//
// Like judging, summarizing never takes the build down: a panic — possible
// only in unverified code — yields the worst summary, and judging then
// degrades the method on its own.
func summarizeMethod(ctx context.Context, px *programIndex, ws *workspace, m *bytecode.Method, node int, opts Options, sums domain.Summaries) (out *domain.MethodSummary) {
	defer func() {
		if recover() != nil {
			out = domain.WorstSummary(m)
		}
	}()
	idx, err := px.of(node)
	if err != nil {
		// Structurally odd methods (none are produced by our codegen)
		// keep the worst case.
		return domain.WorstSummary(m)
	}
	a := newAnalyzer(ctx, px, ws, idx, opts, sums, true)
	if a.fixpoint() != DegradeNone {
		return domain.WorstSummary(m)
	}
	return a.t.Summary()
}
