package core

import (
	"cmp"
	"fmt"
	"slices"

	"satbelim/internal/bytecode"
	"satbelim/internal/cfg"
)

// elemsField is the pseudo-field collapsing all elements of an array
// (paper §2.4: "we treat an object array as an object with a single field
// f_elems").
const elemsField = "$elems"

// fieldID names a field in the program's fieldTable. It is the only
// spelling of a field the analysis uses: σ slots, null-or-same guarantees,
// summaries and the swap detector all carry ids, and two analyses of the
// same program agree on them.
type fieldID int32

// elemsFieldID is elemsField's id in every fieldTable.
const elemsFieldID fieldID = 0

// elemsOnly is the reference-field list of every reference array.
var elemsOnly = []fieldID{elemsFieldID}

// fieldTable numbers the fields of one program — the paper's "fixed and
// finite" set of field identifiers (§2.2), fixed before any fixed point
// starts. It is a function of the program's class declarations alone:
// elemsField is 0 and the declared fields follow in ascending order of
// their qualified "Class.field" names, so iterating ids in ascending order
// is iterating names in sorted order, and tables built separately from a
// program (or from its Clone) are equal. Read-only once built.
type fieldTable struct {
	names []string
	ids   map[bytecode.FieldRef]fieldID
	// refFields lists, per class, the ids of its instance reference fields
	// in ascending order: the fields a summary speaks about.
	refFields map[string][]fieldID
}

func newFieldTable(p *bytecode.Program) *fieldTable {
	type decl struct {
		name string
		ref  bytecode.FieldRef
		inst bool // instance reference field
	}
	var decls []decl
	for _, c := range p.Classes {
		for _, f := range c.Fields {
			ref := bytecode.FieldRef{Class: c.Name, Name: f.Name}
			decls = append(decls, decl{ref.String(), ref, !f.Static && f.Type.IsRef()})
		}
	}
	slices.SortFunc(decls, func(a, b decl) int { return cmp.Compare(a.name, b.name) })
	t := &fieldTable{
		names:     make([]string, 1, len(decls)+1),
		ids:       make(map[bytecode.FieldRef]fieldID, len(decls)),
		refFields: map[string][]fieldID{},
	}
	t.names[elemsFieldID] = elemsField
	for _, d := range decls {
		id := fieldID(len(t.names))
		t.names = append(t.names, d.name)
		t.ids[d.ref] = id
		if d.inst {
			t.refFields[d.ref.Class] = append(t.refFields[d.ref.Class], id)
		}
	}
	return t
}

// refFieldsOf lists the reference fields a value of type typ exposes to
// the field analysis, in ascending order: the declared instance reference
// fields of a class, elemsFieldID for a reference array, nothing otherwise.
// The result is shared and must not be modified.
func (t *fieldTable) refFieldsOf(typ *bytecode.Type) []fieldID {
	switch {
	case typ.IsRefArray():
		return elemsOnly
	case typ != nil && typ.Kind == bytecode.KindClass:
		return t.refFields[typ.Class]
	}
	return nil
}

// methodIndex is what every analysis of one method shares, whatever its
// mode and options: the control-flow graph and the id of each field
// instruction's operand.
type methodIndex struct {
	g       *cfg.Graph
	fieldAt []fieldID
}

// programIndex is what the analyses of one build share, summary rounds and
// judging alike: the program, its field table, and each method's index
// (indexed like p.Methods()), built by the first analysis of the method.
// An entry is touched by one worker at a time — the one holding the
// method's callgraph component, later the one judging the method — so the
// table needs no lock.
type programIndex struct {
	prog    *bytecode.Program
	fields  *fieldTable
	methods []methodIndex
}

func newProgramIndex(p *bytecode.Program, methods int) *programIndex {
	return &programIndex{prog: p, fields: newFieldTable(p), methods: make([]methodIndex, methods)}
}

// of returns the index of m, method i of the program, building it on first
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
	fieldAt := make([]fieldID, len(m.Code))
	for pc := range m.Code {
		switch in := &m.Code[pc]; in.Op {
		case bytecode.OpGetField, bytecode.OpPutField, bytecode.OpGetStatic, bytecode.OpPutStatic:
			f, ok := px.fields.ids[in.Field]
			if !ok {
				return methodIndex{}, fmt.Errorf("%s: pc %d: undeclared field %s", m.QualifiedName(), pc, in.Field)
			}
			fieldAt[pc] = f
		}
	}
	px.methods[i] = methodIndex{g: g, fieldAt: fieldAt}
	return px.methods[i], nil
}
