package core

import (
	"satbelim/internal/bytecode"
	"satbelim/internal/domain"
)

// The call graph and its condensation live beside the symbol table; these
// are the names the analysis's callers know them by.
type (
	CallGraph    = bytecode.CallGraph
	SCC          = bytecode.SCC
	Condensation = bytecode.Condensation
)

// BuildCallGraph is bytecode.BuildCallGraph.
func BuildCallGraph(p *bytecode.Program) *CallGraph { return bytecode.BuildCallGraph(p) }

// Condense is bytecode.Condense.
func Condense(g *CallGraph) *Condensation { return bytecode.Condense(g) }

// methodIndex is what every analysis of one method in a build shares, summary
// rounds and judging alike: the method's Body — its control-flow graph and
// the number of each instruction's symbolic operand, as the program resolved
// them once — and the method's reference table.
type methodIndex struct {
	*bytecode.Body
	refs *domain.RefTable
}

// programIndex is what the analyses of one build share: the program's symbol
// table, the domain's switches (the reference tables depend on two of them,
// SingleRefPerSite and Interprocedural), and each method's index (indexed
// by method number), built by the first analysis of the method.
// An entry is touched by one goroutine at a time — computeSummaries, before
// any judging starts, then the worker judging the method — so the table
// needs no lock.
type programIndex struct {
	prog    *bytecode.Program
	syms    *bytecode.Symbols
	cfg     domain.Config
	methods []methodIndex
}

// newProgramIndex derives the domain's switches from opts: the one place an
// option reaches the transfer functions and the join.
func newProgramIndex(p *bytecode.Program, opts Options) *programIndex {
	s := p.Symbols()
	cfg := domain.Config{Arrays: opts.Mode == ModeFieldArray, NullOrSame: opts.NullOrSame, Rearrange: opts.Rearrange,
		SingleRefPerSite: opts.SingleRefPerSite, FlowInsensitiveEscape: opts.FlowInsensitiveEscape,
		Interprocedural: opts.Interprocedural, NoStrideInference: opts.NoStrideInference}
	return &programIndex{prog: p, syms: s, cfg: cfg, methods: make([]methodIndex, len(s.Methods))}
}

// of returns the index of method number i, building its reference table on
// first use. A body with a structural fault — the verifier rejects such a
// method — is an error.
func (px *programIndex) of(i int) (methodIndex, error) {
	if px.methods[i].Body != nil {
		return px.methods[i], nil
	}
	b := px.prog.Body(i)
	if b.Err != nil {
		return methodIndex{}, b.Err
	}
	idx := methodIndex{Body: b, refs: domain.NewRefTable(px.syms, px.syms.Methods[i], b.CalleeAt, px.cfg)}
	px.methods[i] = idx
	return idx, nil
}
