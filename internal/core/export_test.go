package core

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strconv"

	"satbelim/internal/bytecode"
	"satbelim/internal/domain"
)

// ComputeAllSummaries summarizes every method of p, invoked or not — what
// ComputeSummariesParallel did before it restricted itself to invoked
// components. The on-demand tests compare against it.
func ComputeAllSummaries(p *bytecode.Program, opts Options) domain.Summaries {
	cond := Condense(BuildCallGraph(p))
	sums := make(domain.Summaries, len(cond.Graph.Methods))
	px := newProgramIndex(p, opts)
	for i, m := range cond.Graph.Methods {
		sums[i] = domain.OptimisticSummary(px.syms, m)
	}
	ws := newWorkspace()
	for ci := range cond.SCCs {
		processSCC(context.Background(), px, ws, opts, cond, ci, sums)
	}
	return sums
}

// SummariesCtx summarizes p under ctx, as AnalyzeProgramCtx does before
// it judges.
func SummariesCtx(ctx context.Context, p *bytecode.Program, opts Options) domain.Summaries {
	return computeSummaries(ctx, newProgramIndex(p, opts), opts)
}

// IsWorst reports whether s is the worst summary of m: every argument
// compromised, no field pre-null, the return not fresh.
func IsWorst(s *domain.MethodSummary, m *bytecode.Method) bool {
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

// SummaryOf returns the summary of the named method of p, or nil: the
// summaries are indexed by p's method numbers, the tests speak in names.
func SummaryOf(s domain.Summaries, p *bytecode.Program, ref bytecode.MethodRef) *domain.MethodSummary {
	i := p.Symbols().MethodNum(ref)
	if i < 0 {
		panic("no method named " + ref.String())
	}
	if i < len(s) {
		return s[i]
	}
	return nil
}

// PreNullNamed reports whether the field with qualified name ("Class.field"
// or "$elems") is in argument i's pre-null set: the summaries speak in the
// ids of p's symbol table, the tests in names.
func PreNullNamed(s *domain.MethodSummary, p *bytecode.Program, i int, name string) bool {
	for _, f := range p.Symbols().Fields {
		if f.Name == name {
			return s.PreNull(i, f.ID)
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
		if rep.AbstractRefs != idx.refs.Judged() {
			return 0, fmt.Errorf("%s: AbstractRefs %d, judged references %d", m.QualifiedName(), rep.AbstractRefs, idx.refs.Judged())
		}
		tables++
		a := newAnalyzer(context.Background(), px, ws, idx, opts, opts.Summaries, false)
		if r := a.fixpoint(); r != DegradeNone {
			return 0, fmt.Errorf("%s: degraded: %s", m.QualifiedName(), r)
		}
		// Every state the judge pass starts a block from or ends it with: a
		// join's entry, and out states — among them each single-predecessor
		// block's entry — re-derived here by simulation in reverse
		// postorder, as the judge pass derives them.
		outs := make([]*domain.State, len(a.graph.Blocks))
		for _, id := range a.graph.ReversePostorder() {
			if !ws.reached[id] {
				continue
			}
			in := a.entry[id]
			if !a.isJoin(id) {
				in = outs[a.graph.Blocks[id].Preds[0]]
			}
			out := new(domain.State)
			out.CopyFrom(in)
			a.t.Step(out, id)
			outs[id] = out
			for _, s := range []*domain.State{in, out} {
				if bad := contentsNamed(s, idx.refs.Judged()); len(bad) > 0 {
					return 0, fmt.Errorf("%s: a judging state names contents references %v", m.QualifiedName(), bad)
				}
			}
		}
	}
	return tables, nil
}

// refName matches a reference in a state's rendering (State.String), which
// spells every reference the state names — in ρ, stk, σ's keys and values,
// the null-or-same guarantees, NL, the tainted set, Len and NR — as r<id>;
// a field, rendered Class.name, never matches.
var refName = regexp.MustCompile(`(?:^|[^.\w])r([0-9]+)`)

// contentsNamed returns the references at or above judged — contents
// references, which no judging state may name — that s names.
func contentsNamed(s *domain.State, judged int) []int {
	var bad []int
	for _, m := range refName.FindAllStringSubmatch(s.String(), -1) {
		if r, _ := strconv.Atoi(m[1]); r >= judged && !slices.Contains(bad, r) {
			bad = append(bad, r)
		}
	}
	return bad
}
