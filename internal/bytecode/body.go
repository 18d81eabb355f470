package bytecode

import (
	"fmt"
	"unsafe"
)

// Body is what checking a method body establishes, once, for everyone who
// reads the body afterwards — the verifier, the analysis, the VM's decode,
// the site predicate and the code-size model: its control-flow graph and
// the number of each instruction's symbolic operand. The paper's analysis
// runs on verified bytecode (§2.2); this is the structural half of that
// verification, the half that does not depend on types.
//
// A Body is read-only once built, so any number of goroutines may share one.
// It describes the code as it was when built: a pass that rewrites the code
// in place (the inliner) drops the program's records (CodeChanged).
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

// record is a Body and its Graph in one allocation.
type record struct {
	Body
	graph Graph
}

// newBody checks m against the symbol table s and resolves its operands.
// It is the one place that decides whether a body is well formed: a
// non-empty body of known opcodes whose branch targets are in range and
// whose control never falls off the end (Graph.build), local slots that are
// declared, operand indices within the method's pool that name an entry of
// the kind their opcode takes, field and method operands that resolve,
// static fields reached by the static opcodes and instance fields by the
// others, a newinstance of a declared class and a newarray with an element
// type.
//
// A body takes a fixed handful of allocations whatever its size: the record
// and its graph, one array holding FieldAt, CalleeAt and the graph's
// pc-to-block map, and the graph's own three (Graph.build). Its operands
// are looked up in the pool's resolution, made once per link (resolve).
func newBody(s *Symbols, m *Method) *Body {
	n := len(m.Code)
	ids := make([]int32, 3*n)
	rec := &record{}
	if err := rec.graph.build(m, ids[2*n:]); err != nil {
		return &Body{Err: err}
	}
	fail := func(pc int, format string, args ...any) *Body {
		return &Body{Err: &BodyError{Method: m.QualifiedName(), PC: pc, Msg: fmt.Sprintf(format, args...)}}
	}
	// A FieldID is an int32, so the first third of ids holds field ids.
	b := &rec.Body
	b.Graph = &rec.graph
	b.FieldAt = unsafe.Slice((*FieldID)(unsafe.SliceData(ids)), n)
	b.CalleeAt = ids[n : 2*n : 2*n]
	var res resolution
	for pc := range m.Code {
		in := &m.Code[pc]
		b.CalleeAt[pc] = -1
		var o *Operand
		if in.HasOperand() {
			if in.Ref < 0 || int(in.Ref) >= m.Pool.Len() {
				return fail(pc, "operand #%d out of range [0,%d)", in.Ref, m.Pool.Len())
			}
			if res.pool == nil {
				res = s.resolve(m.Pool)
			}
			o = m.Pool.At(in.Ref)
			isType := in.Op == OpNewInstance || in.Op == OpNewArray
			if o.Type != nil && !isType {
				return fail(pc, "%s of type entry #%d (%s)", in.Op, in.Ref, o)
			}
		}
		switch in.Op {
		case OpLoad, OpStore:
			if in.A < 0 || in.A >= int64(len(m.SlotTypes)) {
				return fail(pc, "slot %d out of range [0,%d)", in.A, len(m.SlotTypes))
			}
		case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
			id := res.field[in.Ref]
			if id < 0 {
				return fail(pc, "unresolved field %s", o)
			}
			// The two kinds are laid out apart, so a mismatched access names
			// no storage.
			if f := &s.Fields[id]; (in.Op == OpGetStatic || in.Op == OpPutStatic) != f.Static {
				return fail(pc, "%s of %s", in.Op, f)
			}
			b.FieldAt[pc] = id
		case OpInvoke, OpSpawn:
			callee := res.method[in.Ref]
			if callee < 0 {
				return fail(pc, "unresolved method %s", o)
			}
			b.CalleeAt[pc] = callee
		case OpNewInstance:
			if t := o.Type; t == nil || t.Kind != KindClass || s.Class(t.Class) == nil {
				return fail(pc, "bad newinstance type %s", t)
			}
		case OpNewArray:
			if o.Type == nil {
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

// resolution is what one operand pool's name entries resolve to under a
// symbol table, entry by entry: the field id (-1 for none) and the method
// number (-1 for none). A name entry may name both.
type resolution struct {
	pool   *Pool
	field  []FieldID
	method []int32
}

// resolve returns pool's resolution, made on first use: each entry is
// looked up once per link, however many instructions name it. A pool is
// not written once its program is linked, so a resolution stays valid when
// the code changes; one of a pool that grew since (a Builder still in use)
// is made again.
func (s *Symbols) resolve(pool *Pool) resolution {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.resolved {
		if r.pool == pool && len(r.field) == pool.Len() {
			return r
		}
	}
	n := pool.Len()
	ids := make([]int32, 2*n)
	r := resolution{pool: pool, field: unsafe.Slice((*FieldID)(unsafe.SliceData(ids)), n), method: ids[n:]}
	for i := range n {
		o := pool.At(int32(i))
		r.field[i], r.method[i] = -1, -1
		if o.Type != nil {
			continue
		}
		if id, ok := s.fields[o.Field()]; ok {
			r.field[i] = id
		}
		r.method[i] = int32(s.MethodNum(o.Method()))
	}
	s.resolved = append(s.resolved, r)
	return r
}

// Body returns the record of method number n, building it on first use
// (and again after AddClass; a Clone starts with none). Concurrent first
// users may each build one; one is kept, and all of them get it.
func (p *Program) Body(n int) *Body { return p.Symbols().body(n) }

// CodeChanged tells p that its methods' code was rewritten in place: it
// drops every Body record and the verdict table, which describe the code
// before, and keeps the numbering, which only the declarations decide. Like
// AddClass, it must not run concurrently with any other use of the program.
func (p *Program) CodeChanged() {
	if s := p.syms.Load(); s != nil {
		for i := range s.bodies {
			s.bodies[i].Store(nil)
		}
		s.verdicts.Store(nil)
	}
}

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
