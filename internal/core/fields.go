package core

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/cfg"
)

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
// rounds and judging alike: the control-flow graph, the number of each
// instruction's symbolic operand — the field id of a field instruction, the
// method number of an invoke's callee (-1 when it names no method: the
// verifier rejects that, and simulating it panics into DegradePanic) — and
// the method's reference table.
type methodIndex struct {
	g        *cfg.Graph
	fieldAt  []fieldID
	calleeAt []int32
	refs     *refTable
}

// programIndex is what the analyses of one build share: the program's symbol
// table, the options the reference tables depend on (SingleRefPerSite,
// Interprocedural), and each method's index (indexed by method number),
// built by the first analysis of the method.
// An entry is touched by one worker at a time — the one holding the
// method's callgraph component, later the one judging the method — so the
// table needs no lock.
type programIndex struct {
	prog    *bytecode.Program
	syms    *bytecode.Symbols
	opts    Options
	methods []methodIndex
}

func newProgramIndex(p *bytecode.Program, methods int, opts Options) *programIndex {
	return &programIndex{prog: p, syms: p.Symbols(), opts: opts, methods: make([]methodIndex, methods)}
}

// of returns the index of m, entry i of the table, building it on first
// use. A field operand that names no declared field — the verifier rejects
// such a method — is an error, like a method the graph builder rejects.
func (px *programIndex) of(i int, m *bytecode.Method) (methodIndex, error) {
	if px.methods[i].g != nil {
		return px.methods[i], nil
	}
	g, err := cfg.Build(m)
	if err != nil {
		return methodIndex{}, err
	}
	idx := methodIndex{g: g, fieldAt: make([]fieldID, len(m.Code))}
	for pc := range m.Code {
		switch in := &m.Code[pc]; in.Op {
		case bytecode.OpGetField, bytecode.OpPutField, bytecode.OpGetStatic, bytecode.OpPutStatic:
			f := px.syms.Field(in.Field)
			if f == nil {
				return methodIndex{}, fmt.Errorf("%s: pc %d: undeclared field %s", m.QualifiedName(), pc, in.Field)
			}
			idx.fieldAt[pc] = f.ID
		case bytecode.OpInvoke:
			if idx.calleeAt == nil {
				idx.calleeAt = make([]int32, len(m.Code))
			}
			idx.calleeAt[pc] = int32(px.syms.MethodNum(in.Method))
		}
	}
	idx.refs = buildRefTable(px.syms, m, idx.calleeAt, px.opts)
	px.methods[i] = idx
	return idx, nil
}
