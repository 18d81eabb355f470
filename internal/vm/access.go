package vm

import (
	"fmt"

	"satbelim/internal/heap"
)

// This file is the decoded engines' one heap-access layer. The switch
// interpreter reaches object storage through internal/heap's checked
// GetField/SetField/GetElem/SetElem/ArrayLen; the fused engine and the
// compiled tier resolve field indices at decode time and would pay for the
// by-name lookup, so they reach it through the three accessors below
// instead. Each answers "the slot, or nil" in a form small enough to inline
// into every site; a nil answer goes to accessErr, the single place that
// decides which fault it was and words it. A site therefore states only
// what is its own — where its operands come from, its error pc and charge,
// its barrier — and a new fault rule or heap layout changes this file only.

// fieldSlot returns field idx of the object r names, or nil when r is null
// or dangling.
func (v *VM) fieldSlot(r heap.Ref, idx int32) *heap.Value {
	o := v.heap.Get(r)
	if o == nil {
		return nil
	}
	return &o.Fields[idx]
}

// elemSlot returns element i of the array r names, or nil when r is null or
// dangling or i is out of bounds.
func (v *VM) elemSlot(r heap.Ref, i int64) *heap.Value {
	o := v.heap.Get(r)
	if o == nil || uint64(i) >= uint64(len(o.Elems)) {
		return nil
	}
	return &o.Elems[i]
}

// arrayLen returns the length of the array r names, or -1 when r is null or
// dangling.
func (v *VM) arrayLen(r heap.Ref) int64 {
	o := v.heap.Get(r)
	if o == nil {
		return -1
	}
	return int64(len(o.Elems))
}

// access names the heap access a site performs, for accessErr.
type access uint8

const (
	readField access = iota
	writeField
	loadElem
	storeElem
	lengthOf
)

// accessErr is the cold path behind a nil slot: it re-derives which check
// failed — null reference, dangling reference, index out of bounds, in the
// reference interpreter's order — and returns the RuntimeError the switch
// interpreter raises for it, the "heap:" messages byte for byte those of
// internal/heap. pc and entered follow the cerr protocol (the fused engine
// counts steps before executing and passes 0). fr is the field for field
// accesses, i the index for element accesses.
func (v *VM) accessErr(f *fframe, pc, entered int32, a access, r heap.Ref, i int64, fr *fieldRec) error {
	o := v.heap.Get(r)
	var msg string
	switch {
	case a == readField && r == heap.Null:
		msg = fmt.Sprintf("null pointer dereference reading %s", fr.ref)
	case a == readField:
		msg = fmt.Sprintf("heap: null dereference reading %s", fr.ref)
	case a == writeField && r == heap.Null:
		msg = fmt.Sprintf("null pointer dereference writing %s", fr.ref)
	case a == writeField:
		msg = fmt.Sprintf("heap: null dereference writing %s", fr.ref)
	case a == loadElem && r == heap.Null:
		msg = "null pointer dereference in array load"
	case a == storeElem && r == heap.Null:
		msg = "null pointer dereference in array store"
	case a == lengthOf && r == heap.Null:
		msg = "null pointer dereference in arraylength"
	case o == nil:
		msg = "heap: null array dereference"
	default:
		msg = fmt.Sprintf("heap: index %d out of bounds [0,%d)", i, len(o.Elems))
	}
	return v.cerr(f, pc, entered, "%s", msg)
}
