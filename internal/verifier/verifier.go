// Package verifier performs abstract stack simulation over bytecode
// methods, in the role the JVM bytecode verifier plays for the paper's
// analyses: it establishes that operand stacks agree in depth and type at
// every control-flow join (paper §2.2 relies on this to merge local states
// elementwise) and computes each method's MaxStack. The structural half of
// verification — the graph, declared slots, resolved operands — is the
// method's bytecode.Body, which the program builds once and everyone reads;
// the verifier rejects a body with a fault and type-checks the rest.
package verifier

import (
	"fmt"

	"satbelim/internal/bytecode"
)

// vkind classifies an abstract verification type.
type vkind int

const (
	vInt vkind = iota
	vBool
	vNull   // the null constant, joinable with any reference type
	vRef    // a reference of known type (ref field non-nil)
	vRefAny // a reference of unknown exact type (after a type-distinct join)
)

// vtype is a verification type.
type vtype struct {
	kind vkind
	ref  *bytecode.Type // set when kind == vRef
}

func (v vtype) String() string {
	switch v.kind {
	case vInt:
		return "int"
	case vBool:
		return "boolean"
	case vNull:
		return "null"
	case vRefAny:
		return "ref"
	default:
		return v.ref.String()
	}
}

func (v vtype) isRef() bool { return v.kind == vNull || v.kind == vRef || v.kind == vRefAny }

func typeToV(t *bytecode.Type) vtype {
	switch t.Kind {
	case bytecode.KindInt:
		return vtype{kind: vInt}
	case bytecode.KindBool:
		return vtype{kind: vBool}
	default:
		return vtype{kind: vRef, ref: t}
	}
}

// mergeV joins two verification types; ok is false on an illegal merge.
func mergeV(a, b vtype) (vtype, bool) {
	if a == b {
		return a, true
	}
	if a.isRef() && b.isRef() {
		if a.kind == vNull {
			return b, true
		}
		if b.kind == vNull {
			return a, true
		}
		if a.kind == vRef && b.kind == vRef && a.ref.Equal(b.ref) {
			return a, true
		}
		return vtype{kind: vRefAny}, true
	}
	return vtype{}, false
}

// assignableV reports whether a value of type v may be stored where
// declared type t is expected.
func assignableV(t *bytecode.Type, v vtype) bool {
	switch t.Kind {
	case bytecode.KindInt:
		return v.kind == vInt
	case bytecode.KindBool:
		return v.kind == vBool
	case bytecode.KindVoid:
		return false
	default:
		return v.kind == vNull || v.kind == vRefAny || (v.kind == vRef && v.ref.Equal(t))
	}
}

// Error is a verification failure.
type Error struct {
	Method string
	PC     int
	Msg    string
}

func (e *Error) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("verify %s: %s", e.Method, e.Msg)
	}
	return fmt.Sprintf("verify %s: pc %d: %s", e.Method, e.PC, e.Msg)
}

type verifier struct {
	syms *bytecode.Symbols
	m    *bytecode.Method
	body *bytecode.Body

	blocks []vblock
	// states holds every reached block's entry stack back to back. A
	// block's depth is fixed when it is first reached (a join of another
	// depth is an error), so its entry never moves or grows.
	states []vtype
	// stk is the one scratch stack every block is simulated on, and succ
	// the successors of the block just simulated.
	stk      []vtype
	succ     [2]int
	nsucc    int
	maxStack int
}

// vblock is one block's verification state, and one slot of the work
// ring.
type vblock struct {
	off, depth int  // its entry stack is states[off : off+depth]
	seen       bool // reached; its entry is valid (and may be empty)
	queued     bool
	// work is the ring's slot at this block's index: the id of a queued
	// block.
	work int
}

func (v *verifier) errf(pc int, format string, args ...any) error {
	return &Error{Method: v.m.QualifiedName(), PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// field is the field the instruction at pc names.
func (v *verifier) field(pc int) *bytecode.FieldSym { return &v.syms.Fields[v.body.FieldAt[pc]] }

// callee is the method the invoke or spawn at pc names.
func (v *verifier) callee(pc int) *bytecode.Method { return v.syms.Methods[v.body.CalleeAt[pc]] }

// Verify checks one method and fills in its MaxStack. Malformed bytecode
// always surfaces as an *Error naming the method — never a panic: a
// recover guard turns internal faults on adversarial input (e.g. from
// fuzzing) into ordinary rejections, so one bad method cannot take the
// process down.
func Verify(p *bytecode.Program, m *bytecode.Method) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Method: m.QualifiedName(), PC: -1, Msg: fmt.Sprintf("internal verifier panic: %v", r)}
		}
	}()
	body := p.BodyOf(m)
	if body.Err != nil {
		be := body.Err.(*bytecode.BodyError) // the only kind of body fault
		return &Error{Method: be.Method, PC: be.PC, Msg: be.Msg}
	}
	g := body.Graph
	n := len(g.Blocks)
	// stk and states start out in one buffer: most methods never stack
	// deeper than 8 nor hold more than 16 entry values.
	small := make([]vtype, 24)
	v := &verifier{syms: p.Symbols(), m: m, body: body, blocks: make([]vblock, n),
		stk: small[:0:8], states: small[8:8]}
	v.blocks[0].seen, v.blocks[0].queued = true, true

	// A FIFO of queued blocks, in the blocks' work slots. A block is
	// queued at most once at a time, so a ring of one slot per block never
	// overflows.
	head, queued := 0, 1
	for queued > 0 {
		id := v.blocks[head].work
		head, queued = (head+1)%n, queued-1
		v.blocks[id].queued = false
		if err := v.simulate(g.Blocks[id]); err != nil {
			return err
		}
		for _, tgt := range v.succ[:v.nsucc] {
			changed, err := v.mergeInto(tgt)
			if err != nil {
				return err
			}
			if changed && !v.blocks[tgt].queued {
				v.blocks[(head+queued)%n].work = tgt
				queued++
				v.blocks[tgt].queued = true
			}
		}
	}
	m.MaxStack = v.maxStack
	return nil
}

// VerifyProgram verifies every method.
func VerifyProgram(p *bytecode.Program) error {
	for _, m := range p.Methods() {
		if err := Verify(p, m); err != nil {
			return err
		}
	}
	return nil
}

// mergeInto merges the scratch stack into block id's entry; reports
// whether the entry changed.
func (v *verifier) mergeInto(id int) (bool, error) {
	state, b := v.stk, &v.blocks[id]
	if !b.seen {
		b.off, b.depth, b.seen = len(v.states), len(state), true
		v.states = append(v.states, state...)
		return true, nil
	}
	cur := v.states[b.off : b.off+b.depth]
	if len(cur) != len(state) {
		return false, v.errf(v.body.Graph.Blocks[id].Start, "stack depth mismatch at join: %d vs %d", len(cur), len(state))
	}
	changed := false
	for i := range cur {
		merged, ok := mergeV(cur[i], state[i])
		if !ok {
			return false, v.errf(v.body.Graph.Blocks[id].Start, "stack type mismatch at join: %s vs %s", cur[i], state[i])
		}
		if merged != cur[i] {
			cur[i] = merged
			changed = true
		}
	}
	return changed, nil
}

func (v *verifier) push(t vtype) {
	v.stk = append(v.stk, t)
	if len(v.stk) > v.maxStack {
		v.maxStack = len(v.stk)
	}
}

func (v *verifier) pop(pc int) (vtype, error) {
	if len(v.stk) == 0 {
		return vtype{}, v.errf(pc, "pop from empty stack")
	}
	t := v.stk[len(v.stk)-1]
	v.stk = v.stk[:len(v.stk)-1]
	return t, nil
}

func (v *verifier) popKind(pc int, k vkind, what string) (vtype, error) {
	t, err := v.pop(pc)
	if err != nil {
		return t, err
	}
	if k == vRef {
		if !t.isRef() {
			return t, v.errf(pc, "%s requires a reference, found %s", what, t)
		}
		return t, nil
	}
	if t.kind != k {
		return t, v.errf(pc, "%s requires %v operand, found %s", what, vtype{kind: k}, t)
	}
	return t, nil
}

// branch records the block holding pc as a successor of the block being
// simulated; a block has at most two.
func (v *verifier) branch(pc int) {
	v.succ[v.nsucc] = v.body.Graph.BlockOf(pc)
	v.nsucc++
}

// simulate runs the block from its entry state on the scratch stack,
// leaving there its out state and in succ the blocks it flows to.
func (v *verifier) simulate(b *bytecode.Block) error {
	e := v.blocks[b.ID]
	v.stk = append(v.stk[:0], v.states[e.off:e.off+e.depth]...)
	v.nsucc = 0

	for pc := b.Start; pc < b.End; pc++ {
		in := &v.m.Code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			v.push(vtype{kind: vInt})
		case bytecode.OpConstBool:
			v.push(vtype{kind: vBool})
		case bytecode.OpConstNull:
			v.push(vtype{kind: vNull})
		case bytecode.OpLoad:
			v.push(typeToV(v.m.SlotTypes[in.A]))
		case bytecode.OpStore:
			slot := int(in.A)
			t, err := v.pop(pc)
			if err != nil {
				return err
			}
			if !assignableV(v.m.SlotTypes[slot], t) {
				return v.errf(pc, "cannot store %s into slot %d of type %s", t, slot, v.m.SlotTypes[slot])
			}
		case bytecode.OpDup:
			if len(v.stk) == 0 {
				return v.errf(pc, "dup on empty stack")
			}
			v.push(v.stk[len(v.stk)-1])
		case bytecode.OpPop:
			if _, err := v.pop(pc); err != nil {
				return err
			}
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem:
			if _, err := v.popKind(pc, vInt, in.Op.String()); err != nil {
				return err
			}
			if _, err := v.popKind(pc, vInt, in.Op.String()); err != nil {
				return err
			}
			v.push(vtype{kind: vInt})
		case bytecode.OpNeg:
			if _, err := v.popKind(pc, vInt, "neg"); err != nil {
				return err
			}
			v.push(vtype{kind: vInt})
		case bytecode.OpAnd, bytecode.OpOr:
			if _, err := v.popKind(pc, vBool, in.Op.String()); err != nil {
				return err
			}
			if _, err := v.popKind(pc, vBool, in.Op.String()); err != nil {
				return err
			}
			v.push(vtype{kind: vBool})
		case bytecode.OpNot:
			if _, err := v.popKind(pc, vBool, "not"); err != nil {
				return err
			}
			v.push(vtype{kind: vBool})
		case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
			bytecode.OpCmpGT, bytecode.OpCmpGE:
			a, err := v.pop(pc)
			if err != nil {
				return err
			}
			bb, err := v.pop(pc)
			if err != nil {
				return err
			}
			// Equality works on int or bool pairs; ordering on ints.
			ordered := in.Op != bytecode.OpCmpEQ && in.Op != bytecode.OpCmpNE
			okPair := (a.kind == vInt && bb.kind == vInt) ||
				(!ordered && a.kind == vBool && bb.kind == vBool)
			if !okPair {
				return v.errf(pc, "%s on %s and %s", in.Op, bb, a)
			}
			v.push(vtype{kind: vBool})
		case bytecode.OpRefEQ, bytecode.OpRefNE:
			if _, err := v.popKind(pc, vRef, in.Op.String()); err != nil {
				return err
			}
			if _, err := v.popKind(pc, vRef, in.Op.String()); err != nil {
				return err
			}
			v.push(vtype{kind: vBool})
		case bytecode.OpGoto:
			v.branch(int(in.A))
			return nil
		case bytecode.OpIfTrue, bytecode.OpIfFalse:
			if _, err := v.popKind(pc, vBool, in.Op.String()); err != nil {
				return err
			}
			v.branch(int(in.A))
		case bytecode.OpIfNull, bytecode.OpIfNonNull:
			if _, err := v.popKind(pc, vRef, in.Op.String()); err != nil {
				return err
			}
			v.branch(int(in.A))
		case bytecode.OpGetField:
			f := v.field(pc)
			obj, err := v.popKind(pc, vRef, "getfield")
			if err != nil {
				return err
			}
			if obj.kind == vRef && (obj.ref.Kind != bytecode.KindClass || obj.ref.Class != f.Ref.Class) {
				return v.errf(pc, "getfield %s on %s", f.Ref, obj)
			}
			v.push(typeToV(f.Type))
		case bytecode.OpPutField:
			f := v.field(pc)
			val, err := v.pop(pc)
			if err != nil {
				return err
			}
			if !assignableV(f.Type, val) {
				return v.errf(pc, "putfield %s: cannot store %s into %s", f.Ref, val, f.Type)
			}
			obj, err := v.popKind(pc, vRef, "putfield")
			if err != nil {
				return err
			}
			if obj.kind == vRef && (obj.ref.Kind != bytecode.KindClass || obj.ref.Class != f.Ref.Class) {
				return v.errf(pc, "putfield %s on %s", f.Ref, obj)
			}
		case bytecode.OpGetStatic:
			v.push(typeToV(v.field(pc).Type))
		case bytecode.OpPutStatic:
			f := v.field(pc)
			val, err := v.pop(pc)
			if err != nil {
				return err
			}
			if !assignableV(f.Type, val) {
				return v.errf(pc, "putstatic %s: cannot store %s into %s", f.Ref, val, f.Type)
			}
		case bytecode.OpNewInstance:
			v.push(vtype{kind: vRef, ref: v.m.Operand(pc).Type})
		case bytecode.OpNewArray:
			if _, err := v.popKind(pc, vInt, "newarray length"); err != nil {
				return err
			}
			v.push(vtype{kind: vRef, ref: bytecode.ArrayOf(v.m.Operand(pc).Type)})
		case bytecode.OpArrayLength:
			arr, err := v.popKind(pc, vRef, "arraylength")
			if err != nil {
				return err
			}
			if arr.kind == vRef && arr.ref.Kind != bytecode.KindArray {
				return v.errf(pc, "arraylength on %s", arr)
			}
			v.push(vtype{kind: vInt})
		case bytecode.OpAALoad:
			if _, err := v.popKind(pc, vInt, "aaload index"); err != nil {
				return err
			}
			arr, err := v.popKind(pc, vRef, "aaload")
			if err != nil {
				return err
			}
			if arr.kind == vRef {
				if !arr.ref.IsRefArray() {
					return v.errf(pc, "aaload on %s", arr)
				}
				v.push(vtype{kind: vRef, ref: arr.ref.Elem})
			} else {
				v.push(vtype{kind: vRefAny})
			}
		case bytecode.OpAAStore:
			val, err := v.pop(pc)
			if err != nil {
				return err
			}
			if !val.isRef() {
				return v.errf(pc, "aastore of non-reference %s", val)
			}
			if _, err := v.popKind(pc, vInt, "aastore index"); err != nil {
				return err
			}
			arr, err := v.popKind(pc, vRef, "aastore")
			if err != nil {
				return err
			}
			if arr.kind == vRef && !arr.ref.IsRefArray() {
				return v.errf(pc, "aastore on %s", arr)
			}
		case bytecode.OpIALoad:
			if _, err := v.popKind(pc, vInt, "iaload index"); err != nil {
				return err
			}
			arr, err := v.popKind(pc, vRef, "iaload")
			if err != nil {
				return err
			}
			elem := vtype{kind: vInt}
			if arr.kind == vRef {
				if arr.ref.Kind != bytecode.KindArray || arr.ref.Elem.IsRef() {
					return v.errf(pc, "iaload on %s", arr)
				}
				elem = typeToV(arr.ref.Elem)
			}
			v.push(elem)
		case bytecode.OpIAStore:
			val, err := v.pop(pc)
			if err != nil {
				return err
			}
			if val.isRef() {
				return v.errf(pc, "iastore of reference %s", val)
			}
			if _, err := v.popKind(pc, vInt, "iastore index"); err != nil {
				return err
			}
			arr, err := v.popKind(pc, vRef, "iastore")
			if err != nil {
				return err
			}
			if arr.kind == vRef && (arr.ref.Kind != bytecode.KindArray || arr.ref.Elem.IsRef()) {
				return v.errf(pc, "iastore on %s", arr)
			}
		case bytecode.OpInvoke:
			callee := v.callee(pc)
			for i := callee.NumArgs() - 1; i >= 0; i-- {
				at := callee.ArgType(i)
				val, err := v.pop(pc)
				if err != nil {
					return err
				}
				if !assignableV(at, val) {
					return v.errf(pc, "invoke %s: argument %d: cannot use %s as %s", v.m.Operand(pc), i, val, at)
				}
			}
			if callee.Return != bytecode.Void {
				v.push(typeToV(callee.Return))
			}
		case bytecode.OpSpawn:
			callee := v.callee(pc)
			if callee.Static || len(callee.Params) != 0 || callee.Return != bytecode.Void {
				return v.errf(pc, "spawn target %s must be a void instance method with no parameters", v.m.Operand(pc))
			}
			if _, err := v.popKind(pc, vRef, "spawn"); err != nil {
				return err
			}
		case bytecode.OpReturn:
			if v.m.Return != bytecode.Void {
				return v.errf(pc, "return without value in method returning %s", v.m.Return)
			}
			return nil
		case bytecode.OpReturnValue:
			if v.m.Return == bytecode.Void {
				return v.errf(pc, "returnvalue in void method")
			}
			val, err := v.pop(pc)
			if err != nil {
				return err
			}
			if !assignableV(v.m.Return, val) {
				return v.errf(pc, "cannot return %s from method returning %s", val, v.m.Return)
			}
			return nil
		case bytecode.OpPrint:
			if _, err := v.popKind(pc, vInt, "print"); err != nil {
				return err
			}
		case bytecode.OpTrap:
			return nil
		}
	}
	// Fell through the block end.
	v.branch(b.End)
	return nil
}
