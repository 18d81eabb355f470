package vm

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
)

// This file is the engines' one heap-access layer. All three reach object
// storage through the three accessors below, with the field slot or the
// array index their method's Body resolved, and statics through
// heap.Static. Each accessor answers "the slot, or nil" in a form small
// enough to inline into every site; a nil answer goes to heapFault, the
// single place that decides which fault it was and words it. A site
// therefore states only what is its own — where its operands come from, its
// error pc and charge, its barrier — and a new fault rule or heap layout
// changes this file only.

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
// failed — null reference, dangling reference, index out of bounds, in that
// order — and words the fault. field is the field of a field access, i the
// index of an element access.
func (v *VM) heapFault(a access, r heap.Ref, i int64, field *bytecode.FieldRef) string {
	switch {
	case a == readField && r == heap.Null:
		return fmt.Sprintf("null pointer dereference reading %s", field)
	case a == readField:
		return fmt.Sprintf("heap: null dereference reading %s", field)
	case a == writeField && r == heap.Null:
		return fmt.Sprintf("null pointer dereference writing %s", field)
	case a == writeField:
		return fmt.Sprintf("heap: null dereference writing %s", field)
	case a == loadElem && r == heap.Null:
		return "null pointer dereference in array load"
	case a == storeElem && r == heap.Null:
		return "null pointer dereference in array store"
	case a == lengthOf && r == heap.Null:
		return "null pointer dereference in arraylength"
	}
	if o := v.heap.Get(r); o != nil {
		return fmt.Sprintf("heap: index %d out of bounds [0,%d)", i, len(o.Elems))
	}
	return "heap: null array dereference"
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
