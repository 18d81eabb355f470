package bytecode

import "fmt"

// Builder assembles methods by hand. It is used by tests and by the code
// generator, which builds every method of a program with one Builder: Start
// begins the next method and reuses the instruction buffer and label table
// of the last, and every method a Builder makes shares its operand pool.
// Branch targets may be forward-referenced through labels.
type Builder struct {
	m *Method
	// code is the instruction buffer, kept across methods; m.Code is it
	// until Build copies the method's code out.
	code []Instr
	// labels is indexed by Label.
	labels []label
	// pool is the operand pool of every method the Builder makes, and index
	// maps each interning key (Operand) to its entry.
	pool  *Pool
	index map[Operand]int32
}

// Label is a branch target of the method under construction, numbered in
// the order NewLabel made it.
type Label int

// label is what the Builder knows of one Label. Until it is bound, the
// branches awaiting it form a chain through their A operands, last first,
// ending in -1.
type label struct {
	at   int // the bound pc, -1 until Bind
	last int // the last branch awaiting the label, -1 for none
}

// NewBuilder starts a method on a new Builder. Slots for the receiver and
// parameters are declared with DeclareSlot (or AddParam).
func NewBuilder(class, name string, static bool) *Builder {
	b := &Builder{}
	b.Start(class, name, static)
	return b
}

// Start begins a new method, dropping the labels of the last one. The
// method shares the operand pool of the Builder's earlier methods.
func (b *Builder) Start(class, name string, static bool) *Builder {
	if b.code == nil {
		// Room for a typical method, so that the buffers seldom grow.
		b.code, b.labels = make([]Instr, 0, 64), make([]label, 0, 16)
	}
	if b.pool == nil {
		b.Reserve(8)
	}
	b.m = &Method{Class: class, Name: name, Static: static, Return: Void, Code: b.code[:0], Pool: b.pool}
	b.labels = b.labels[:0]
	return b
}

// Reserve makes room for n operands in the pool of the Builder's methods,
// before its first Start: the code generator, which knows how many fields,
// methods and classes a program declares, sizes its one pool once.
func (b *Builder) Reserve(n int) {
	if b.pool == nil {
		b.pool, b.index = &Pool{entries: make([]Operand, 0, n)}, make(map[Operand]int32, n)
	}
}

// SetCtor marks the method as a constructor.
func (b *Builder) SetCtor() *Builder { b.m.Ctor = true; return b }

// SetReturn sets the return type.
func (b *Builder) SetReturn(t *Type) *Builder { b.m.Return = t; return b }

// AddParam declares a parameter of the given type (also allocating its
// slot). The receiver slot of instance methods must be declared first via
// DeclareSlot(ClassType(class)).
func (b *Builder) AddParam(t *Type) int {
	b.m.Params = append(b.m.Params, t)
	return b.DeclareSlot(t)
}

// DeclareSlot allocates a new local slot of the given type and returns its
// index.
func (b *Builder) DeclareSlot(t *Type) int {
	b.m.SlotTypes = append(b.m.SlotTypes, t)
	return len(b.m.SlotTypes) - 1
}

// PC returns the next instruction's pc.
func (b *Builder) PC() int { return len(b.m.Code) }

// Emit appends an instruction and returns its pc.
func (b *Builder) Emit(in Instr) int {
	b.m.Code = append(b.m.Code, in)
	return len(b.m.Code) - 1
}

// Op emits a zero-operand instruction.
func (b *Builder) Op(op Op) int { return b.Emit(Instr{Op: op}) }

// Const emits an integer constant push.
func (b *Builder) Const(v int64) int { return b.Emit(Instr{Op: OpConst, A: v}) }

// ConstBool emits a boolean constant push.
func (b *Builder) ConstBool(v bool) int {
	a := int64(0)
	if v {
		a = 1
	}
	return b.Emit(Instr{Op: OpConstBool, A: a})
}

// Null emits a null push.
func (b *Builder) Null() int { return b.Op(OpConstNull) }

// Load emits a local load.
func (b *Builder) Load(slot int) int { return b.Emit(Instr{Op: OpLoad, A: int64(slot)}) }

// Store emits a local store.
func (b *Builder) Store(slot int) int { return b.Emit(Instr{Op: OpStore, A: int64(slot)}) }

// Operand returns the index of o in the Builder's operand pool, appending o
// on first use. Equal name entries share one entry, as do type entries for
// one class (ClassType makes a new *Type per call); other types are
// interned by pointer.
func (b *Builder) Operand(o Operand) int32 {
	key := o
	if o.Type != nil && o.Type.Kind == KindClass {
		key = Operand{Class: o.Type.Class, Type: anyClass}
	}
	ref, ok := b.index[key]
	if !ok {
		ref = int32(len(b.pool.entries))
		b.pool.entries = append(b.pool.entries, o)
		b.index[key] = ref
	}
	return ref
}

// anyClass is the Type of every class type's interning key.
var anyClass = &Type{Kind: KindClass}

func (b *Builder) field(op Op, f FieldRef) int {
	return b.Emit(Instr{Op: op, Ref: b.Operand(Operand{Class: f.Class, Name: f.Name})})
}

func (b *Builder) call(op Op, m MethodRef) int {
	return b.Emit(Instr{Op: op, Ref: b.Operand(Operand{Class: m.Class, Name: m.Name})})
}

// GetField / PutField / GetStatic / PutStatic emit field accesses.
func (b *Builder) GetField(f FieldRef) int  { return b.field(OpGetField, f) }
func (b *Builder) PutField(f FieldRef) int  { return b.field(OpPutField, f) }
func (b *Builder) GetStatic(f FieldRef) int { return b.field(OpGetStatic, f) }
func (b *Builder) PutStatic(f FieldRef) int { return b.field(OpPutStatic, f) }

// New emits an object allocation.
func (b *Builder) New(class string) int {
	return b.Emit(Instr{Op: OpNewInstance, Ref: b.Operand(Operand{Type: ClassType(class)})})
}

// NewArray emits an array allocation with the given element type.
func (b *Builder) NewArray(elem *Type) int {
	return b.Emit(Instr{Op: OpNewArray, Ref: b.Operand(Operand{Type: elem})})
}

// Invoke emits a call.
func (b *Builder) Invoke(ref MethodRef) int { return b.call(OpInvoke, ref) }

// Spawn emits a thread start.
func (b *Builder) Spawn(ref MethodRef) int { return b.call(OpSpawn, ref) }

// NewLabel makes an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, label{at: -1, last: -1})
	return Label(len(b.labels) - 1)
}

// Bind binds l to the next pc and patches the branches awaiting it.
func (b *Builder) Bind(l Label) {
	lb := &b.labels[l]
	lb.at = b.PC()
	for pc := lb.last; pc >= 0; {
		in := &b.m.Code[pc]
		pc, in.A = int(in.A), int64(lb.at)
	}
	lb.last = -1
}

// Branch emits a branch to l, which may be bound later.
func (b *Builder) Branch(op Op, l Label) int {
	lb := &b.labels[l]
	if lb.at >= 0 {
		return b.Emit(Instr{Op: op, A: int64(lb.at)})
	}
	pc := b.Emit(Instr{Op: op, A: int64(lb.last)})
	lb.last = pc
	return pc
}

// Goto / IfTrue / IfFalse emit branches to labels.
func (b *Builder) Goto(l Label) int    { return b.Branch(OpGoto, l) }
func (b *Builder) IfTrue(l Label) int  { return b.Branch(OpIfTrue, l) }
func (b *Builder) IfFalse(l Label) int { return b.Branch(OpIfFalse, l) }

// Return emits a void return.
func (b *Builder) Return() int { return b.Op(OpReturn) }

// ReturnValue emits a value return.
func (b *Builder) ReturnValue() int { return b.Op(OpReturnValue) }

// Method returns the method under construction without finalizing it.
// Callers may patch already-emitted instructions (e.g. to attach source
// lines) but must still call Build to check label resolution.
func (b *Builder) Method() *Method { return b.m }

// Build finalizes and returns the method, its code copied out of the
// Builder's buffer at its exact size. It panics on a branch to a label
// that was never bound (a programming error in the caller).
func (b *Builder) Build() *Method {
	m := b.m
	for l, lb := range b.labels {
		if lb.last >= 0 {
			panic(fmt.Sprintf("bytecode.Builder: unbound label %d in %s.%s", l, m.Class, m.Name))
		}
	}
	b.code = m.Code[:0]
	m.Code = append(make([]Instr, 0, len(m.Code)), m.Code...)
	return m
}
