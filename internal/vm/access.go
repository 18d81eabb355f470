package vm

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
)

// This file is the engines' one heap-access layer. All three reach object
// storage through the heap's three accessors, heap.FieldSlot,
// heap.ElemSlot and heap.ArrayLen, with the field slot or the array index
// their method's Body resolved, and statics through heap.Static. Each
// accessor answers "the slot, or nil" (ArrayLen: the length, or -1) and
// inlines; a nil answer goes to heapFault below, the single place that
// decides which fault it was and words it. A site therefore states only
// what is its own — where its operands come from, its error pc and charge,
// its barrier — a new fault rule changes this file only, and a new heap
// layout internal/heap only.
//
// A heap slot is one untagged word; a frame holds tagged values. The kind
// of every site is static — its field's declared type, or its opcode for
// an array — so load and word convert at the site, and a decoded engine's
// site passes a constant kind.

// value is a frame's local or operand-stack entry: an int, or a reference
// (IsRef), as the instruction that produced it knew.
type value struct {
	IsRef bool
	I     int64
	R     heap.Ref
}

func intVal(i int64) value    { return value{I: i} }
func refVal(r heap.Ref) value { return value{IsRef: true, R: r} }
func nullVal() value          { return value{IsRef: true} }

// load is the frame value of heap word w at a site that reads a reference
// (ref) or an int.
func load(w heap.Value, ref bool) value {
	if ref {
		return refVal(heap.Ref(w))
	}
	return intVal(int64(w))
}

// word is the heap word of frame value x at a site that stores a reference
// (ref) or an int.
func word(x value, ref bool) heap.Value {
	if ref {
		return heap.RefVal(x.R)
	}
	return heap.IntVal(x.I)
}

// maxArrayLen is the longest array the heap hands out, 1<<24 elements (128
// MiB of words). A longer one is a runtime error like a negative length,
// not a Go panic or an out-of-memory crash that no recover stops.
const maxArrayLen = 1 << 24

// arraySizeFault words the fault of an array length outside [0,
// maxArrayLen]; every engine tests uint64(n) > maxArrayLen first.
func arraySizeFault(n int64) string {
	if n < 0 {
		return fmt.Sprintf("negative array size %d", n)
	}
	return fmt.Sprintf("array size %d exceeds the heap limit of %d elements", n, maxArrayLen)
}

// access names the heap access a site performs, for heapFault.
type access uint8

const (
	readField access = iota
	writeField
	loadElem
	storeElem
	lengthOf
)

// heapFault is the cold path behind a nil slot: it re-derives which check
// failed — null reference, dangling reference, an object of the wrong
// shape, index out of bounds, in that order — and words the fault. field is
// the field of a field access, i the index of an element access.
func (v *VM) heapFault(a access, r heap.Ref, i int64, field *bytecode.FieldRef) string {
	o := v.heap.Get(r)
	switch {
	case a == readField && r == heap.Null:
		return fmt.Sprintf("null pointer dereference reading %s", field)
	case a == readField && o.IsNil():
		return fmt.Sprintf("heap: null dereference reading %s", field)
	case a == writeField && r == heap.Null:
		return fmt.Sprintf("null pointer dereference writing %s", field)
	case a == writeField && o.IsNil():
		return fmt.Sprintf("heap: null dereference writing %s", field)
	case (a == readField || a == writeField) && o.IsArray():
		return fmt.Sprintf("heap: field %s of an array", field)
	case a == readField || a == writeField:
		return fmt.Sprintf("heap: field %s past the object's %d fields", field, len(o.Fields))
	case a == loadElem && r == heap.Null:
		return "null pointer dereference in array load"
	case a == storeElem && r == heap.Null:
		return "null pointer dereference in array store"
	case a == lengthOf && r == heap.Null:
		return "null pointer dereference in arraylength"
	case o.IsNil():
		return "heap: null array dereference"
	case !o.IsArray():
		return "heap: array access to an object that is not an array"
	}
	return fmt.Sprintf("heap: index %d out of bounds [0,%d)", i, len(o.Fields))
}

// accessErr is heapFault raised by a decoded engine: pc and entered follow
// the cerr protocol (the fused engine counts steps before executing and
// passes 0), and fr is nil for an element access.
func (v *VM) accessErr(f *fframe, pc, entered int32, a access, r heap.Ref, i int64, fr *fieldRec) error {
	var field *bytecode.FieldRef
	if fr != nil {
		field = &fr.ref
	}
	return v.cerr(f, pc, entered, "%s", v.heapFault(a, r, i, field))
}
