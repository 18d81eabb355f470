package bytecode

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Field is a declared (instance or static) field of a class.
type Field struct {
	Name   string
	Type   *Type
	Static bool
}

// Class is a compiled class: fields plus methods.
type Class struct {
	Name    string
	Fields  []*Field
	Methods []*Method
}

// Method is a compiled method body.
type Method struct {
	Class  string
	Name   string
	Static bool
	// Ctor marks constructors. Constructors are instance methods named
	// "<init>" whose receiver is known thread-local and null-fielded on
	// entry (paper §2.3).
	Ctor bool

	// Params are the declared parameter types, excluding the receiver.
	Params []*Type
	// Return is the result type (Void for none).
	Return *Type

	// SlotTypes records the static type of each local variable slot, filled
	// by codegen and extended by the inliner; its length is the slot count.
	// Slot 0 is the receiver for instance methods; parameters follow. The
	// analyses use it to distinguish reference slots.
	SlotTypes []*Type

	Code []Instr
	// Pool holds the operands Code names by index (Instr.Ref). Methods of
	// one program usually share it; it is never written once the program
	// is published, so Clone shares it too.
	Pool *Pool

	// MaxStack is the verified operand stack bound (set by the verifier).
	MaxStack int
}

// NumSlots returns the number of local variable slots.
func (m *Method) NumSlots() int { return len(m.SlotTypes) }

// Ref returns the method's reference.
func (m *Method) Ref() MethodRef { return MethodRef{Class: m.Class, Name: m.Name} }

// NumArgs returns the argument count including the receiver.
func (m *Method) NumArgs() int {
	n := len(m.Params)
	if !m.Static {
		n++
	}
	return n
}

// ArgType returns the type of argument i, where i counts the receiver as
// argument 0 for instance methods.
func (m *Method) ArgType(i int) *Type {
	if !m.Static {
		if i == 0 {
			return ClassType(m.Class)
		}
		i--
	}
	return m.Params[i]
}

// Size returns the method's encoded bytecode size in bytes.
func (m *Method) Size() int {
	n := 0
	for i := range m.Code {
		n += m.Code[i].Size()
	}
	return n
}

// QualifiedName returns "Class.Name".
func (m *Method) QualifiedName() string { return m.Class + "." + m.Name }

// Program is a whole compiled program. Its classes are complete when they
// are added: a field or method appended to a class afterwards is not seen.
type Program struct {
	classes map[string]*Class
	// syms is the symbol table, nil until first asked for (symbols.go).
	syms atomic.Pointer[Symbols]
	// Main names the entry point, a static void method with no params.
	Main MethodRef
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: map[string]*Class{}}
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// AddClass registers a class, replacing any previous definition. It must
// not run concurrently with any other use of the program.
func (p *Program) AddClass(c *Class) {
	p.classes[c.Name] = c
	p.syms.Store(nil)
}

// Method resolves a method reference, or returns nil.
func (p *Program) Method(ref MethodRef) *Method {
	s := p.Symbols()
	if i := s.MethodNum(ref); i >= 0 {
		return s.Methods[i]
	}
	return nil
}

// FieldType resolves a field reference's declared type, or nil.
func (p *Program) FieldType(ref FieldRef) *Type {
	if f := p.Symbols().Field(ref); f != nil {
		return f.Type
	}
	return nil
}

// SortedClasses returns the classes in name order, for deterministic
// iteration. The slice is the symbol table's and must not be modified.
func (p *Program) SortedClasses() []*Class { return p.Symbols().Classes }

// Methods returns every method in deterministic order: a method's index is
// its method number. The slice is the symbol table's and must not be
// modified.
func (p *Program) Methods() []*Method { return p.Symbols().Methods }

// Size returns the total bytecode size of all methods.
func (p *Program) Size() int {
	n := 0
	for _, m := range p.Methods() {
		n += m.Size()
	}
	return n
}

// Disassemble renders a method listing, each instruction annotated with
// its verdict in verdicts (nil: none).
func Disassemble(m *Method, verdicts []Verdict) string {
	var b strings.Builder
	kind := "method"
	if m.Static {
		kind = "static method"
	}
	if m.Ctor {
		kind = "constructor"
	}
	fmt.Fprintf(&b, "%s %s.%s (%d slots, %d bytes)\n", kind, m.Class, m.Name, m.NumSlots(), m.Size())
	for pc := range m.Code {
		v := VerdictNone
		if verdicts != nil {
			v = verdicts[pc]
		}
		fmt.Fprintf(&b, "  %4d: %s\n", pc, m.Code[pc].Annotated(m.Pool, v))
	}
	return b.String()
}

// DisassembleProgram renders every method of the program, annotated with
// its verdict table.
func DisassembleProgram(p *Program) string {
	var b strings.Builder
	vt := p.Verdicts()
	for n, m := range p.Methods() {
		b.WriteString(Disassemble(m, vt.Of(n)))
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate reports the first structural fault of any method's Body, in
// method-number order, then checks the entry point. It returns nil for a
// program whose methods the verifier may go on to type-check.
func (p *Program) Validate() error {
	for n := range p.Methods() {
		if err := p.Body(n).Err; err != nil {
			return err
		}
	}
	if p.Main != (MethodRef{}) {
		mm := p.Method(p.Main)
		if mm == nil {
			return fmt.Errorf("main method %s not found", p.Main)
		}
		if !mm.Static || len(mm.Params) != 0 {
			return fmt.Errorf("main method %s must be static with no parameters", p.Main)
		}
	}
	return nil
}
