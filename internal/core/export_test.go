package core

import "satbelim/internal/bytecode"

// ComputeAllSummaries summarizes every method of p, invoked or not — what
// ComputeSummariesParallel did before it restricted itself to invoked
// components. The on-demand tests compare against it.
func ComputeAllSummaries(p *bytecode.Program, opts Options) Summaries {
	cond := Condense(BuildCallGraph(p))
	sums := Summaries{}
	px := newProgramIndex(p, len(cond.Graph.Methods))
	for _, m := range cond.Graph.Methods {
		sums[m.Ref()] = optimisticSummary(px.fields, m)
	}
	for ci := range cond.SCCs {
		processSCC(px, opts, cond, ci, sums)
	}
	return sums
}

// PreNullNamed reports whether the field with qualified name ("Class.field"
// or "$elems") is in argument i's pre-null set: the summaries speak in the
// ids of p's field table, the tests in names.
func (s *MethodSummary) PreNullNamed(p *bytecode.Program, i int, name string) bool {
	for f, n := range newFieldTable(p).names {
		if n == name {
			return s.preNull(i, fieldID(f))
		}
	}
	panic("no field named " + name)
}
