package core

import "satbelim/internal/bytecode"

// fieldID names a field in the program's symbol table. It is the only
// spelling of a field the analysis uses: σ slots, null-or-same guarantees,
// summaries and the swap detector all carry ids, and two analyses of the
// same program agree on them.
type fieldID = bytecode.FieldID

// elemsFieldID is the id of the pseudo-field standing for an array's
// elements.
const elemsFieldID = bytecode.ElemsField

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
	refs *refTable
}

// programIndex is what the analyses of one build share: the program's symbol
// table, the options the reference tables depend on (SingleRefPerSite,
// Interprocedural), and each method's index (indexed by method number),
// built by the first analysis of the method.
// An entry is touched by one goroutine at a time — computeSummaries, before
// any judging starts, then the worker judging the method — so the table
// needs no lock.
type programIndex struct {
	prog    *bytecode.Program
	syms    *bytecode.Symbols
	opts    Options
	methods []methodIndex
}

func newProgramIndex(p *bytecode.Program, opts Options) *programIndex {
	s := p.Symbols()
	return &programIndex{prog: p, syms: s, opts: opts, methods: make([]methodIndex, len(s.Methods))}
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
	idx := methodIndex{Body: b, refs: buildRefTable(px.syms, px.syms.Methods[i], b.CalleeAt, px.opts)}
	px.methods[i] = idx
	return idx, nil
}
