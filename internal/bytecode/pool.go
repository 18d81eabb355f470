package bytecode

// Operand is one entry of an operand pool. A name entry (Type nil) is what a
// field or method instruction names, by class and member name; a type entry
// is what an allocation instruction makes: the class of an OpNewInstance,
// the element type of an OpNewArray. One name entry may serve both a field
// and a method instruction: it holds names, and linking decides what they
// resolve to.
type Operand struct {
	Class string
	Name  string
	Type  *Type
}

// Field returns the field reference a name entry makes.
func (o *Operand) Field() FieldRef { return FieldRef{Class: o.Class, Name: o.Name} }

// Method returns the method reference a name entry makes.
func (o *Operand) Method() MethodRef { return MethodRef{Class: o.Class, Name: o.Name} }

// String renders the entry as the disassembly shows it: "C.f" for a name
// entry, the type for a type entry.
func (o *Operand) String() string {
	if o.Type != nil {
		return o.Type.String()
	}
	return o.Class + "." + o.Name
}

// Pool is an append-only table of operands that instructions name by index
// (Instr.Ref), as JVM instructions name constant-pool entries. The code
// generator gives a program one pool, which all its methods share; a
// stand-alone NewBuilder gives its methods their own. Only the Builder that
// made a pool appends to it, and only before the program is published: a
// pool a linked program can reach is never written, so programs, their
// Clones and their readers share pools freely.
type Pool struct {
	entries []Operand
}

// Len returns the number of entries; a nil pool has none.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.entries)
}

// At returns entry ref, which must be in range. The result is the pool's
// and must not be modified.
func (p *Pool) At(ref int32) *Operand { return &p.entries[ref] }

// Concat returns a new pool holding p's entries and then q's, so that entry
// i of q is entry p.Len()+i of the result. Neither p nor q is written.
func (p *Pool) Concat(q *Pool) *Pool {
	entries := make([]Operand, 0, p.Len()+q.Len())
	if p != nil {
		entries = append(entries, p.entries...)
	}
	if q != nil {
		entries = append(entries, q.entries...)
	}
	return &Pool{entries: entries}
}

// Operand returns the pool entry instruction pc names. The instruction must
// name one (Instr.HasOperand) that is in range, as in any method whose Body
// has no fault.
func (m *Method) Operand(pc int) *Operand { return m.Pool.At(m.Code[pc].Ref) }
