package bytecode

import "fmt"

// Body is what checking a method body establishes, once, for everyone who
// reads the body afterwards — the verifier, the analysis, the VM's decode,
// the site predicate and the code-size model: its control-flow graph and
// the number of each instruction's symbolic operand. The paper's analysis
// runs on verified bytecode (§2.2); this is the structural half of that
// verification, the half that does not depend on types.
//
// A Body is read-only once built, so any number of goroutines may share one.
// It describes the code as it was when built: nothing asks for the body of a
// method whose code is still changing (the inliner's clone).
type Body struct {
	// Graph is the method's control-flow graph.
	Graph *Graph
	// FieldAt is, per pc, the field id a field instruction names
	// (ElemsField at every other pc).
	FieldAt []FieldID
	// CalleeAt is, per pc, the method number an invoke or spawn names, and
	// -1 at every other pc.
	CalleeAt []int32
	// Err is the first structural fault in pc order, or nil. A body with a
	// fault has nothing else: its other fields are nil.
	Err error
}

// BodyError is a structural fault of a method body.
type BodyError struct {
	Method string
	// PC is the faulting instruction, -1 for a fault of the whole body.
	PC  int
	Msg string
}

func (e *BodyError) Error() string {
	if e.PC < 0 {
		return e.Method + ": " + e.Msg
	}
	return fmt.Sprintf("%s: pc %d: %s", e.Method, e.PC, e.Msg)
}

// newBody checks m against the symbol table s and resolves its operands.
// It is the one place that decides whether a body is well formed: a
// non-empty body of known opcodes whose branch targets are in range and
// whose control never falls off the end (buildGraph), local slots that are
// declared, field and method operands that resolve, static fields reached
// by the static opcodes and instance fields by the others, a newinstance of
// a declared class and a newarray with an element type.
func newBody(s *Symbols, m *Method) *Body {
	g, err := buildGraph(m)
	if err != nil {
		return &Body{Err: err}
	}
	fail := func(pc int, format string, args ...any) *Body {
		return &Body{Err: &BodyError{Method: m.QualifiedName(), PC: pc, Msg: fmt.Sprintf(format, args...)}}
	}
	b := &Body{Graph: g, FieldAt: make([]FieldID, len(m.Code)), CalleeAt: make([]int32, len(m.Code))}
	for pc := range m.Code {
		in := &m.Code[pc]
		b.CalleeAt[pc] = -1
		switch in.Op {
		case OpLoad, OpStore:
			if in.A < 0 || in.A >= int64(len(m.SlotTypes)) {
				return fail(pc, "slot %d out of range [0,%d)", in.A, len(m.SlotTypes))
			}
		case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
			f := s.Field(in.Field)
			if f == nil {
				return fail(pc, "unresolved field %s", in.Field)
			}
			// The two kinds are laid out apart, so a mismatched access names
			// no storage.
			if static := in.Op == OpGetStatic || in.Op == OpPutStatic; static != f.Static {
				return fail(pc, "%s of %s", in.Op, f)
			}
			b.FieldAt[pc] = f.ID
		case OpInvoke, OpSpawn:
			callee := s.MethodNum(in.Method)
			if callee < 0 {
				return fail(pc, "unresolved method %s", in.Method)
			}
			b.CalleeAt[pc] = int32(callee)
		case OpNewInstance:
			if in.Type == nil || in.Type.Kind != KindClass || s.Class(in.Type.Class) == nil {
				return fail(pc, "bad newinstance type %s", in.Type)
			}
		case OpNewArray:
			if in.Type == nil {
				return fail(pc, "newarray missing element type")
			}
		default:
			if _, ok := opNames[in.Op]; !ok {
				return fail(pc, "unknown opcode %v", in.Op)
			}
		}
	}
	return b
}

// Body returns the record of method number n, building it on first use
// (and again after AddClass; a Clone starts with none). Concurrent first
// users may each build one; one is kept, and all of them get it.
func (p *Program) Body(n int) *Body { return p.Symbols().body(n) }

// BodyOf returns the record of m, which must be one of p's methods.
func (p *Program) BodyOf(m *Method) *Body {
	s := p.Symbols()
	n := s.MethodNum(m.Ref())
	if n < 0 || s.Methods[n] != m {
		panic("bytecode: BodyOf " + m.QualifiedName() + ", a method the program does not hold")
	}
	return s.body(n)
}

func (s *Symbols) body(n int) *Body {
	slot := &s.bodies[n]
	if b := slot.Load(); b != nil {
		return b
	}
	if b := newBody(s, s.Methods[n]); slot.CompareAndSwap(nil, b) {
		return b
	}
	return slot.Load()
}
