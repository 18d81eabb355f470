package core

import (
	"satbelim/internal/bytecode"
	"satbelim/internal/cfg"
)

// ComputeAllSummaries summarizes every method of p, invoked or not — what
// ComputeSummariesParallel did before it restricted itself to invoked
// components. The on-demand tests compare against it.
func ComputeAllSummaries(p *bytecode.Program, opts Options) Summaries {
	cond := Condense(BuildCallGraph(p))
	sums := Summaries{}
	for _, m := range cond.Graph.Methods {
		sums[m.Ref()] = optimisticSummary(p, m)
	}
	graphs := make([]*cfg.Graph, len(cond.Graph.Methods))
	for ci := range cond.SCCs {
		processSCC(p, opts, cond, ci, sums, graphs)
	}
	return sums
}
