package bytecode

import "fmt"

// Builder assembles a Method by hand. It is used by tests and by the code
// generator. Branch targets may be forward-referenced through labels.
type Builder struct {
	m      *Method
	labels map[string]int   // label -> pc
	fixups map[string][]int // label -> pcs of branches awaiting the label
}

// NewBuilder starts a method. Slots for the receiver and parameters are
// declared with DeclareSlot (or AddParam).
func NewBuilder(class, name string, static bool) *Builder {
	return &Builder{
		m: &Method{
			Class:  class,
			Name:   name,
			Static: static,
			Return: Void,
		},
		labels: map[string]int{},
		fixups: map[string][]int{},
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

// GetField / PutField / GetStatic / PutStatic emit field accesses.
func (b *Builder) GetField(f FieldRef) int  { return b.Emit(Instr{Op: OpGetField, Field: f}) }
func (b *Builder) PutField(f FieldRef) int  { return b.Emit(Instr{Op: OpPutField, Field: f}) }
func (b *Builder) GetStatic(f FieldRef) int { return b.Emit(Instr{Op: OpGetStatic, Field: f}) }
func (b *Builder) PutStatic(f FieldRef) int { return b.Emit(Instr{Op: OpPutStatic, Field: f}) }

// New emits an object allocation.
func (b *Builder) New(class string) int {
	return b.Emit(Instr{Op: OpNewInstance, Type: ClassType(class)})
}

// NewArray emits an array allocation with the given element type.
func (b *Builder) NewArray(elem *Type) int { return b.Emit(Instr{Op: OpNewArray, Type: elem}) }

// Invoke emits a call.
func (b *Builder) Invoke(ref MethodRef) int { return b.Emit(Instr{Op: OpInvoke, Method: ref}) }

// Spawn emits a thread start.
func (b *Builder) Spawn(ref MethodRef) int { return b.Emit(Instr{Op: OpSpawn, Method: ref}) }

// Label binds the named label to the next pc and patches pending fixups.
func (b *Builder) Label(name string) {
	pc := b.PC()
	b.labels[name] = pc
	for _, site := range b.fixups[name] {
		b.m.Code[site].A = int64(pc)
	}
	delete(b.fixups, name)
}

// Branch emits a branch to the named label (which may be bound later).
func (b *Builder) Branch(op Op, label string) int {
	pc := b.Emit(Instr{Op: op})
	if target, ok := b.labels[label]; ok {
		b.m.Code[pc].A = int64(target)
	} else {
		b.fixups[label] = append(b.fixups[label], pc)
	}
	return pc
}

// Goto / IfTrue / IfFalse emit branches to labels.
func (b *Builder) Goto(label string) int    { return b.Branch(OpGoto, label) }
func (b *Builder) IfTrue(label string) int  { return b.Branch(OpIfTrue, label) }
func (b *Builder) IfFalse(label string) int { return b.Branch(OpIfFalse, label) }

// Return emits a void return.
func (b *Builder) Return() int { return b.Op(OpReturn) }

// ReturnValue emits a value return.
func (b *Builder) ReturnValue() int { return b.Op(OpReturnValue) }

// Method returns the method under construction without finalizing it.
// Callers may patch already-emitted instructions (e.g. to attach source
// lines) but must still call Build to check label resolution.
func (b *Builder) Method() *Method { return b.m }

// Build finalizes and returns the method. It panics on unresolved labels
// (a programming error in the caller).
func (b *Builder) Build() *Method {
	if len(b.fixups) > 0 {
		for name := range b.fixups {
			panic(fmt.Sprintf("bytecode.Builder: unresolved label %q in %s.%s", name, b.m.Class, b.m.Name))
		}
	}
	return b.m
}
