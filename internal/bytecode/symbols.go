package bytecode

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// FieldID numbers a field in a program's symbol table.
type FieldID int32

// ElemsField is the pseudo-field collapsing all elements of an array (paper
// §2.4: "we treat an object array as an object with a single field
// f_elems"). It is id 0 of every table; declared fields start at 1.
const ElemsField FieldID = 0

// FieldSym is what linking decides about one field.
type FieldSym struct {
	ID  FieldID
	Ref FieldRef
	// Name is Ref.String() ("$elems" for ElemsField).
	Name   string
	Type   *Type
	Static bool
	// IsRef is Type.IsRef(): stores to the field are barrier candidates.
	IsRef bool
	// Slot indexes the field's storage: among its class's instance fields
	// in declaration order, or for a static among Symbols.Statics.
	Slot int
}

// String renders the field for diagnostics: "static field C.s".
func (f *FieldSym) String() string {
	if f.Static {
		return "static field " + f.Name
	}
	return "instance field " + f.Name
}

// ClassSym is what linking decides about one class.
type ClassSym struct {
	// Num is the class's number: its index in Classes and ClassSyms.
	Num int
	// NumFields counts the instance fields: the size of an object.
	NumFields int
	// RefFields lists the instance reference fields in ascending id order.
	RefFields []FieldID
	// RefSlots lists the slots of the instance reference fields in
	// ascending order: the words of an object that a collector traces.
	RefSlots []int32
}

// Symbols is a program's symbol table: the one place that numbers its
// methods and fields and resolves references to them — the paper's "fixed
// and finite" universe (§2.2), fixed before any fixed point starts. The
// numbering is a function of the declarations alone, so a program, its
// Clone and its inlined form agree on it. Method bodies change under the
// inliner, so what is known about them is not copied with the numbering:
// each table holds its own program's Body records, built on first use
// (body.go) and dropped when the code is rewritten (CodeChanged), and its
// program's verdict table (verdicts.go); the call graph is computed from
// the code when asked for (BuildCallGraph). Read-only once built, apart
// from the records' one-time fill, the verdict table's atomic replacement
// and the locked cache of operand-pool resolutions, and so safe for
// concurrent readers.
type Symbols struct {
	// Classes is every class in ascending name order.
	Classes []*Class
	// ClassSyms is what linking decided about each class, by class number
	// (the order of Classes).
	ClassSyms []ClassSym
	// Methods is every method, classes in name order and each class's
	// methods in name order. A method's index is its method number.
	Methods []*Method
	// Fields is indexed by FieldID: ElemsField, then the declared fields in
	// ascending order of their qualified names, so ascending ids are sorted
	// names.
	Fields []FieldSym
	// Statics lists the static fields by Slot: classes in name order, each
	// class's statics in declaration order.
	Statics []FieldRef
	// RefStatics lists the slots of the reference statics in ascending
	// order: the static roots.
	RefStatics []int32

	classes map[string]*ClassSym
	fields  map[FieldRef]FieldID
	methods map[MethodRef]int
	// bodies holds each method's Body by method number, nil until first
	// asked for.
	bodies []atomic.Pointer[Body]
	// verdicts is the table Program.Verdicts returns, nil until the first
	// SetVerdicts or Verdicts.
	verdicts atomic.Pointer[Verdicts]
	// resolved holds the resolution of each operand pool a Body has needed
	// (resolve), under mu.
	mu       sync.Mutex
	resolved []resolution
}

// Symbols returns the program's symbol table, linking the program on first
// use (and again after AddClass). Concurrent first users may each link; the
// tables are equal, one of them is kept, and all of them get it — so they
// share its Body records too.
func (p *Program) Symbols() *Symbols {
	if s := p.syms.Load(); s != nil {
		return s
	}
	return p.link()
}

func (p *Program) link() *Symbols {
	fields, methods, instRefs, staticRefs := 1, 0, 0, 0
	for _, c := range p.classes {
		fields += len(c.Fields)
		methods += len(c.Methods)
		for _, f := range c.Fields {
			switch {
			case !f.Type.IsRef():
			case f.Static:
				staticRefs++
			default:
				instRefs++
			}
		}
	}
	s := &Symbols{
		Classes:   make([]*Class, 0, len(p.classes)),
		ClassSyms: make([]ClassSym, len(p.classes)),
		Methods:   make([]*Method, 0, methods),
		Fields:    make([]FieldSym, 1, fields),
		classes:   make(map[string]*ClassSym, len(p.classes)),
		fields:    make(map[FieldRef]FieldID, fields),
		methods:   make(map[MethodRef]int, methods),
	}
	for _, c := range p.classes {
		s.Classes = append(s.Classes, c)
	}
	slices.SortFunc(s.Classes, func(a, b *Class) int { return cmp.Compare(a.Name, b.Name) })
	s.Fields[ElemsField] = FieldSym{Name: "$elems", IsRef: true}
	// One backing array holds every class's RefSlots, then RefStatics.
	refSlots := make([]int32, instRefs+staticRefs)
	insts, statics := refSlots[:0:instRefs], refSlots[instRefs:instRefs]
	// Of two declarations with one name the first resolves, as a scan of the
	// declaration lists would find it.
	for i, c := range s.Classes {
		cs := &s.ClassSyms[i]
		cs.Num = i
		s.classes[c.Name] = cs
		firstRef := len(insts)
		for _, f := range c.Fields {
			ref := FieldRef{Class: c.Name, Name: f.Name}
			sym := FieldSym{Ref: ref, Name: ref.String(), Type: f.Type, Static: f.Static, IsRef: f.Type.IsRef()}
			if f.Static {
				sym.Slot = len(s.Statics)
				s.Statics = append(s.Statics, ref)
				if sym.IsRef {
					statics = append(statics, int32(sym.Slot))
				}
			} else {
				sym.Slot = cs.NumFields
				cs.NumFields++
				if sym.IsRef {
					insts = append(insts, int32(sym.Slot))
				}
			}
			s.Fields = append(s.Fields, sym)
		}
		cs.RefSlots = insts[firstRef:len(insts):len(insts)]
		first := s.addMethods(c)
		for i, m := range s.Methods[first:] {
			if ref := (MethodRef{Class: c.Name, Name: m.Name}); s.MethodNum(ref) < 0 {
				s.methods[ref] = first + i
			}
		}
	}
	slices.SortStableFunc(s.Fields[1:], func(a, b FieldSym) int { return cmp.Compare(a.Name, b.Name) })
	for i := range s.Fields[1:] {
		f := &s.Fields[i+1]
		f.ID = FieldID(i + 1)
		if s.Field(f.Ref) == nil {
			s.fields[f.Ref] = f.ID
		}
		if f.IsRef && !f.Static {
			cs := s.classes[f.Ref.Class]
			cs.RefFields = append(cs.RefFields, f.ID)
		}
	}
	s.RefStatics = statics
	s.bodies = make([]atomic.Pointer[Body], len(s.Methods))
	if !p.syms.CompareAndSwap(nil, s) {
		return p.syms.Load()
	}
	return s
}

// addMethods appends c's methods, in name order, to Methods and returns the
// number of the first of them.
func (s *Symbols) addMethods(c *Class) (first int) {
	first = len(s.Methods)
	s.Methods = append(s.Methods, c.Methods...)
	slices.SortStableFunc(s.Methods[first:], func(a, b *Method) int { return cmp.Compare(a.Name, b.Name) })
	return first
}

// over returns the table of p, a program with the declarations of the one s
// was linked from (its Clone): the numbering is shared, the class and
// method pointers are p's, and nothing decoded from a body, and no
// verdict, exists yet.
func (s *Symbols) over(p *Program) *Symbols {
	t := &Symbols{
		Classes:   make([]*Class, len(s.Classes)),
		ClassSyms: s.ClassSyms,
		Methods:   make([]*Method, 0, len(s.Methods)),
		Fields:    s.Fields,
		Statics:   s.Statics,
		// RefStatics, like the classes' RefSlots, is the numbering's.
		RefStatics: s.RefStatics,
		classes:    s.classes,
		fields:     s.fields,
		methods:    s.methods,
		bodies:     make([]atomic.Pointer[Body], len(s.Methods)),
	}
	for i, c := range s.Classes {
		t.Classes[i] = p.classes[c.Name]
		t.addMethods(t.Classes[i])
	}
	return t
}

// Field resolves a field reference, or returns nil. The result points into
// Fields and must not be modified.
func (s *Symbols) Field(ref FieldRef) *FieldSym {
	if id, ok := s.fields[ref]; ok {
		return &s.Fields[id]
	}
	return nil
}

// MethodNum resolves a method reference to its method number, or -1.
func (s *Symbols) MethodNum(ref MethodRef) int {
	if i, ok := s.methods[ref]; ok {
		return i
	}
	return -1
}

// Class returns what linking decided about the named class, or nil.
func (s *Symbols) Class(name string) *ClassSym { return s.classes[name] }

// RefFieldsOf lists the reference fields a value of type t exposes to the
// field analysis, in ascending order: the declared instance reference
// fields of a class, ElemsField for a reference array, nothing otherwise.
// The result is shared and must not be modified.
func (s *Symbols) RefFieldsOf(t *Type) []FieldID {
	switch {
	case t.IsRefArray():
		return elemsOnly
	case t != nil && t.Kind == KindClass:
		if cs := s.classes[t.Class]; cs != nil {
			return cs.RefFields
		}
	}
	return nil
}

var elemsOnly = []FieldID{ElemsField}
