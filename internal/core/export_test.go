package core

import (
	"context"
	"fmt"

	"satbelim/internal/bytecode"
)

// ComputeAllSummaries summarizes every method of p, invoked or not — what
// ComputeSummariesParallel did before it restricted itself to invoked
// components. The on-demand tests compare against it.
func ComputeAllSummaries(p *bytecode.Program, opts Options) Summaries {
	cond := Condense(BuildCallGraph(p))
	sums := make(Summaries, len(cond.Graph.Methods))
	px := newProgramIndex(p, opts)
	for i, m := range cond.Graph.Methods {
		sums[i] = optimisticSummary(px.syms, m)
	}
	ws := newWorkspace()
	for ci := range cond.SCCs {
		processSCC(context.Background(), px, ws, opts, cond, ci, sums)
	}
	return sums
}

// SummariesCtx summarizes p under ctx, as AnalyzeProgramCtx does before
// it judges.
func SummariesCtx(ctx context.Context, p *bytecode.Program, opts Options) Summaries {
	return computeSummaries(ctx, newProgramIndex(p, opts), opts)
}

// IsWorst reports whether s is the worst summary of m: every argument
// compromised, no field pre-null, the return not fresh.
func (s *MethodSummary) IsWorst(m *bytecode.Method) bool {
	if s.ReturnsFresh || len(s.ArgCompromised) != m.NumArgs() {
		return false
	}
	for i := range s.ArgCompromised {
		if !s.ArgCompromised[i] || !s.ArgIntMutated[i] || len(s.ArgPreNullFields[i]) != 0 {
			return false
		}
	}
	return true
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

// RefTablesOf analyzes p as AnalyzeProgram does, on one worker, and returns
// how many reference tables the build constructed. It also checks what
// sharing one table promises: a summarized method is judged over the table
// its summary rounds read, no judging state names a contents reference, and
// each report's AbstractRefs is its table's judged count.
func RefTablesOf(p *bytecode.Program, opts Options) (int, error) {
	methods := p.Methods()
	px := newProgramIndex(p, opts)
	if opts.Interprocedural {
		opts.Summaries = computeSummaries(context.Background(), px, opts)
	}
	tables := 0
	ws := newWorkspace()
	for i, m := range methods {
		summarized := px.methods[i].refs
		rep, _, err := analyzeMethod(context.Background(), px, ws, i, opts, "")
		if err != nil {
			return 0, err
		}
		idx := px.methods[i]
		if summarized != nil && summarized != idx.refs {
			return 0, fmt.Errorf("%s: judged over a table of its own", m.QualifiedName())
		}
		if rep.AbstractRefs != idx.refs.judged {
			return 0, fmt.Errorf("%s: AbstractRefs %d, judged references %d", m.QualifiedName(), rep.AbstractRefs, idx.refs.judged)
		}
		tables++
		a := newAnalyzer(context.Background(), px, ws, m, idx, opts)
		a.summaries = opts.Summaries
		if r := a.fixpoint(); r != DegradeNone {
			return 0, fmt.Errorf("%s: degraded: %s", m.QualifiedName(), r)
		}
		// Every state the judge pass starts a block from or ends it with: a
		// join's entry, and out states — among them each single-predecessor
		// block's entry — re-derived here by simulation in reverse
		// postorder, as the judge pass derives them.
		outs := make([]*state, len(a.Graph.Blocks))
		for _, id := range a.Graph.ReversePostorder() {
			if !ws.reached[id] {
				continue
			}
			in := a.entry[id]
			if !a.isJoin(id) {
				in = outs[a.Graph.Blocks[id].Preds[0]]
			}
			out := &state{tab: in.tab}
			out.copyFrom(in)
			a.simulate(out, a.Graph.Blocks[id], nil)
			outs[id] = out
			for _, s := range []*state{in, out} {
				if bad := contentsNamed(s, idx.refs.judged); len(bad) > 0 {
					return 0, fmt.Errorf("%s: a judging state names contents references %v", m.QualifiedName(), bad)
				}
			}
		}
	}
	return tables, nil
}

// contentsNamed returns the references at or above judged — contents
// references, which no judging state may name — that s names.
func contentsNamed(s *state, judged int) []RefID {
	named := s.nl.Union(s.intTainted)
	for _, vs := range [][]Value{s.locals, s.stack, s.sigma} {
		for _, v := range vs {
			named = named.Union(v.refs)
		}
	}
	for _, k := range s.tab.keys {
		named = named.With(k.ref)
	}
	var bad []RefID
	named.ForEach(func(r RefID) {
		if int(r) >= judged {
			bad = append(bad, r)
		}
	})
	return bad
}
