package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op uint8

// The instruction set. It mirrors the JVM subset over which the paper's
// analyses are defined: local load/store, field and static access, object
// and array allocation, reference- and int-array element access, invoke,
// arithmetic, comparisons, and branches.
const (
	// OpNop does nothing. The inliner uses it to replace removed
	// instructions without renumbering branch targets.
	OpNop Op = iota

	// OpConst pushes the integer constant A.
	OpConst
	// OpConstBool pushes the boolean constant (A != 0).
	OpConstBool
	// OpConstNull pushes the null reference.
	OpConstNull

	// OpLoad pushes local slot A.
	OpLoad
	// OpStore pops the stack top into local slot A.
	OpStore

	// OpDup duplicates the stack top.
	OpDup
	// OpPop discards the stack top.
	OpPop

	// Integer arithmetic: pop two (or one for OpNeg), push result.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg

	// Boolean connectives (non-short-circuit): pop two booleans, push one.
	OpAnd
	OpOr
	// OpNot pops one boolean and pushes its negation.
	OpNot

	// Integer comparisons: pop two ints, push a boolean.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Reference comparisons: pop two refs, push a boolean.
	OpRefEQ
	OpRefNE

	// OpGoto jumps unconditionally to pc A.
	OpGoto
	// OpIfTrue pops a boolean and jumps to pc A when it is true.
	OpIfTrue
	// OpIfFalse pops a boolean and jumps to pc A when it is false.
	OpIfFalse
	// OpIfNull pops a reference and jumps to pc A when it is null.
	OpIfNull
	// OpIfNonNull pops a reference and jumps to pc A when it is non-null.
	OpIfNonNull

	// OpGetField pops an object reference and pushes the value of the
	// field its operand names.
	OpGetField
	// OpPutField pops a value then an object reference and stores the
	// value into the field its operand names. When the stored value is a
	// reference, this is an SATB write-barrier site.
	OpPutField

	// OpGetStatic pushes the value of the static field its operand names.
	OpGetStatic
	// OpPutStatic pops a value into the static field its operand names.
	// Reference stores here always keep their barrier (and make the value
	// escape).
	OpPutStatic

	// OpNewInstance allocates a new object of the class its operand's Type
	// names (fields zeroed / nulled) and pushes its reference. The
	// instruction's pc is the allocation-site id used by the analysis.
	OpNewInstance
	// OpNewArray pops a length and allocates a new array whose element
	// type is its operand's Type (elements zeroed / nulled), pushing its
	// reference.
	OpNewArray
	// OpArrayLength pops an array reference and pushes its length.
	OpArrayLength

	// OpAALoad pops index then array ref, pushes the reference element.
	OpAALoad
	// OpAAStore pops value, index, array ref and stores the reference
	// element. This is an SATB write-barrier site.
	OpAAStore
	// OpIALoad / OpIAStore are the scalar (int/boolean) array accesses;
	// they never require barriers.
	OpIALoad
	OpIAStore

	// OpInvoke calls the method its operand names. Arguments (receiver
	// first for instance methods) are popped; a non-void result is pushed.
	OpInvoke
	// OpSpawn pops a receiver and starts the method its operand names (an
	// instance method of the receiver with no other arguments) on a new
	// thread. The receiver escapes.
	OpSpawn

	// OpReturn returns from a void method.
	OpReturn
	// OpReturnValue pops the stack top and returns it.
	OpReturnValue

	// OpPrint pops an int and emits it on the VM's output (test hook).
	OpPrint

	// OpTrap aborts execution with a "missing return" error. The code
	// generator plants it where a value-returning method falls off the
	// end; verified control flow never reaches it in correct programs.
	OpTrap
)

// FieldRef names a field, static or instance.
type FieldRef struct {
	Class string
	Name  string
}

func (f FieldRef) String() string { return f.Class + "." + f.Name }

// MethodRef names a method.
type MethodRef struct {
	Class string
	Name  string
}

func (m MethodRef) String() string { return m.Class + "." + m.Name }

// Instr is one bytecode instruction: three words holding no pointer, so
// that code arrays copy as plain memory and the Go collector never scans
// them. Operand fields are used according to the opcode; unused fields are
// zero.
type Instr struct {
	A int64 // constant, local slot, or branch target pc
	// Line is the source line for diagnostics (0 when synthesized).
	Line int32
	// Ref indexes the method's operand pool (Method.Pool) for the
	// instructions that name something: a field (OpGetField, OpPutField,
	// OpGetStatic, OpPutStatic), a method (OpInvoke, OpSpawn) or an
	// allocated type (OpNewInstance, OpNewArray). It is what a JVM
	// instruction's constant-pool index is.
	Ref int32
	Op  Op
}

// HasOperand reports whether the instruction names a pool entry (Ref).
func (in *Instr) HasOperand() bool {
	switch in.Op {
	case OpGetField, OpPutField, OpGetStatic, OpPutStatic,
		OpNewInstance, OpNewArray, OpInvoke, OpSpawn:
		return true
	}
	return false
}

// IsBranch reports whether the instruction can transfer control to Instr.A.
func (in *Instr) IsBranch() bool {
	switch in.Op {
	case OpGoto, OpIfTrue, OpIfFalse, OpIfNull, OpIfNonNull:
		return true
	}
	return false
}

// IsTerminator reports whether control never falls through to the next pc.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpGoto, OpReturn, OpReturnValue, OpTrap:
		return true
	}
	return false
}

// Size returns the instruction's encoded size in bytes under a JVM-like
// encoding. The inliner's "inline limit" parameter (paper §4.4) is
// expressed in these units, as is the compiled-code-size experiment
// (Figure 3).
func (in *Instr) Size() int {
	switch in.Op {
	case OpNop, OpConstNull, OpDup, OpPop,
		OpAdd, OpSub, OpMul, OpDiv, OpRem, OpNeg,
		OpAnd, OpOr, OpNot,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE,
		OpRefEQ, OpRefNE,
		OpArrayLength, OpAALoad, OpAAStore, OpIALoad, OpIAStore,
		OpReturn, OpReturnValue, OpPrint, OpTrap:
		return 1
	case OpLoad, OpStore, OpConstBool:
		return 2
	case OpConst:
		return 3
	case OpGoto, OpIfTrue, OpIfFalse, OpIfNull, OpIfNonNull:
		return 3
	case OpGetField, OpPutField, OpGetStatic, OpPutStatic,
		OpNewInstance, OpNewArray, OpInvoke, OpSpawn:
		return 3
	default:
		return 1
	}
}

var opNames = map[Op]string{
	OpNop: "nop", OpConst: "const", OpConstBool: "constbool", OpConstNull: "constnull",
	OpLoad: "load", OpStore: "store", OpDup: "dup", OpPop: "pop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpNot: "not",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt", OpCmpLE: "cmple",
	OpCmpGT: "cmpgt", OpCmpGE: "cmpge", OpRefEQ: "refeq", OpRefNE: "refne",
	OpGoto: "goto", OpIfTrue: "iftrue", OpIfFalse: "iffalse",
	OpIfNull: "ifnull", OpIfNonNull: "ifnonnull",
	OpGetField: "getfield", OpPutField: "putfield",
	OpGetStatic: "getstatic", OpPutStatic: "putstatic",
	OpNewInstance: "newinstance", OpNewArray: "newarray", OpArrayLength: "arraylength",
	OpAALoad: "aaload", OpAAStore: "aastore", OpIALoad: "iaload", OpIAStore: "iastore",
	OpInvoke: "invoke", OpSpawn: "spawn",
	OpReturn: "return", OpReturnValue: "returnvalue", OpPrint: "print",
	OpTrap: "trap",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// String renders the instruction with its operands, a pool operand as its
// index ("getfield #3"): the pool is the method's.
func (in *Instr) String() string { return in.Annotated(nil, VerdictNone) }

// Annotated renders the instruction with its operands, a pool operand as
// the entry of pool it names (its index, "#3", when pool has no such
// entry), and, for a verdict that elides a barrier, the disassembly's
// "; no-barrier" note.
func (in *Instr) Annotated(pool *Pool, v Verdict) string {
	s := in.Op.String()
	switch {
	case in.Op == OpConst || in.Op == OpConstBool || in.Op == OpLoad || in.Op == OpStore:
		s = fmt.Sprintf("%s %d", s, in.A)
	case in.IsBranch():
		s = fmt.Sprintf("%s -> %d", s, in.A)
	case !in.HasOperand():
	case in.Ref < 0 || int(in.Ref) >= pool.Len():
		s = fmt.Sprintf("%s #%d", s, in.Ref)
	default:
		s += " " + pool.At(in.Ref).String()
	}
	switch v {
	case VerdictNone:
	case VerdictPreNull:
		s += "  ; no-barrier"
	default:
		s += "  ; no-barrier(" + v.String() + ")"
	}
	return s
}
