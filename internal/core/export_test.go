package core

import "satbelim/internal/bytecode"

// ComputeAllSummaries summarizes every method of p, invoked or not — what
// ComputeSummariesParallel did before it restricted itself to invoked
// components. The on-demand tests compare against it.
func ComputeAllSummaries(p *bytecode.Program, opts Options) Summaries {
	cond := Condense(BuildCallGraph(p))
	sums := make(Summaries, len(cond.Graph.Methods))
	px := newProgramIndex(p, len(cond.Graph.Methods))
	for i, m := range cond.Graph.Methods {
		sums[i] = optimisticSummary(px.syms, m)
	}
	for ci := range cond.SCCs {
		processSCC(px, opts, cond, ci, sums)
	}
	return sums
}

// Of returns the summary of the named method of p, or nil: the summaries
// are indexed by p's method numbers, the tests speak in names.
func (s Summaries) Of(p *bytecode.Program, ref bytecode.MethodRef) *MethodSummary {
	i := p.Symbols().MethodNum(ref)
	if i < 0 {
		panic("no method named " + ref.String())
	}
	return s.of(i)
}

// PreNullNamed reports whether the field with qualified name ("Class.field"
// or "$elems") is in argument i's pre-null set: the summaries speak in the
// ids of p's symbol table, the tests in names.
func (s *MethodSummary) PreNullNamed(p *bytecode.Program, i int, name string) bool {
	for _, f := range p.Symbols().Fields {
		if f.Name == name {
			return s.preNull(i, f.ID)
		}
	}
	panic("no field named " + name)
}
