package bytecode

// Clone returns a deep copy of the method: instructions, slot types, and
// parameter lists are copied so that transformations (inlining, barrier
// annotation) on the copy never affect the original. Type values and the
// operand pool are shared: types are immutable by convention, and a pass
// that would add operands gives the method a new pool (Pool.Concat).
func (m *Method) Clone() *Method {
	cp := *m
	cp.Code = append([]Instr(nil), m.Code...)
	cp.SlotTypes = append([]*Type(nil), m.SlotTypes...)
	cp.Params = append([]*Type(nil), m.Params...)
	return &cp
}

// Clone returns a deep copy of the program. Classes and field descriptors
// are copied shallowly except for method bodies, which are deep-copied. The
// copy has the same declarations and so shares the symbol table's numbering.
func (p *Program) Clone() *Program {
	cp := NewProgram()
	cp.Main = p.Main
	for name, c := range p.classes {
		nc := &Class{Name: c.Name}
		nc.Fields = append([]*Field(nil), c.Fields...)
		for _, m := range c.Methods {
			nc.Methods = append(nc.Methods, m.Clone())
		}
		cp.classes[name] = nc
	}
	if s := p.syms.Load(); s != nil {
		cp.syms.Store(s.over(cp))
	}
	return cp
}
