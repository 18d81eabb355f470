package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"satbelim/internal/intval"
)

// vkind classifies an abstract Value.
type vkind int8

const (
	// vBottom is the uninitialized lattice bottom ⊥: merge identity.
	vBottom vkind = iota
	// vRefs is a set of possible abstract references; the empty set means
	// definitely null.
	vRefs
	// vInt is a symbolic integer (booleans are folded into this domain).
	vInt
)

// srcKey identifies a heap slot for the null-or-same extension (§4.3).
type srcKey struct {
	ref   RefID
	field fieldID
}

// srcSet records the null-or-same guarantees carried by a value: key k is
// present when, at the current program point, the heap slot k either
// contains this very value or contains null. Sets are immutable.
type srcSet struct{ keys []srcKey } // sorted

func (s *srcSet) has(k srcKey) bool {
	if s == nil {
		return false
	}
	_, ok := slices.BinarySearchFunc(s.keys, k, srcKeyCmp)
	return ok
}

// srcKeyCmp orders keys by reference, then field.
func srcKeyCmp(a, b srcKey) int {
	return cmp.Or(cmp.Compare(a.ref, b.ref), cmp.Compare(a.field, b.field))
}

func singletonSrc(k srcKey) *srcSet { return &srcSet{keys: []srcKey{k}} }

// intersect returns the common guarantees of two sets.
func (s *srcSet) intersect(t *srcSet) *srcSet {
	if s == nil || t == nil {
		return nil
	}
	var out []srcKey
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] == t.keys[j]:
			out = append(out, s.keys[i])
			i++
			j++
		case srcKeyCmp(s.keys[i], t.keys[j]) < 0:
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return &srcSet{keys: out}
}

// without returns s less the guarantees drop selects.
func (s *srcSet) without(drop func(srcKey) bool) *srcSet {
	if s == nil {
		return nil
	}
	var out []srcKey
	for _, k := range s.keys {
		if !drop(k) {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == len(s.keys) {
		return s
	}
	return &srcSet{keys: out}
}

// dropField removes guarantees about any slot of the given field
// (conservative aliasing: a store to f anywhere may change any f).
func (s *srcSet) dropField(field fieldID) *srcSet {
	return s.without(func(k srcKey) bool { return k.field == field })
}

// dropRefs removes guarantees about slots of escaped references: once an
// object is reachable by other threads, "the field still holds this value"
// can no longer be maintained (the paper's §4.3 mutator/mutator caveat).
func (s *srcSet) dropRefs(nl RefSet) *srcSet {
	return s.without(func(k srcKey) bool { return nl.Has(k.ref) })
}

func (s *srcSet) equal(t *srcSet) bool {
	if s == nil || t == nil {
		return (s == nil) == (t == nil)
	}
	return slices.Equal(s.keys, t.keys)
}

// Value is one abstract value: a RefVal (set of references, empty = null),
// a symbolic integer, or ⊥. It holds the fixed point's facts and nothing
// else, in one 64-byte cache line: states copy, compare and merge Values by
// the thousand. (The §4.3 rearrangement detector's value numbers and
// element provenance are the judge pass's, in a side table: see
// annotations.)
type Value struct {
	kind vkind
	refs RefSet
	iv   intval.IntVal
	srcs *srcSet
}

// Bottom is the ⊥ value.
var Bottom = Value{kind: vBottom}

// NullValue is the definitely-null reference value.
func NullValue() Value { return Value{kind: vRefs} }

// RefValue wraps a reference set.
func RefValue(s RefSet) Value { return Value{kind: vRefs, refs: s} }

// IntValue wraps a symbolic integer.
func IntValue(iv intval.IntVal) Value { return Value{kind: vInt, iv: iv} }

// TopInt is the unknown-integer value.
func TopInt() Value { return Value{kind: vInt, iv: intval.Top} }

// IsBottom reports whether v is ⊥.
func (v Value) IsBottom() bool { return v.kind == vBottom }

// IsRefs reports whether v is a reference value.
func (v Value) IsRefs() bool { return v.kind == vRefs }

// Refs returns the reference set (empty unless IsRefs).
func (v Value) Refs() RefSet { return v.refs }

// Int returns the symbolic integer; non-integers yield ⊤ conservatively.
func (v Value) Int() intval.IntVal {
	if v.kind != vInt {
		return intval.Top
	}
	return v.iv
}

// withSrcs returns v carrying the given null-or-same guarantees.
func (v Value) withSrcs(s *srcSet) Value {
	v.srcs = s
	return v
}

// Equal reports structural equality.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case vRefs:
		return v.refs.Equal(w.refs) && v.srcs.equal(w.srcs)
	case vInt:
		return v.iv.Equal(w.iv)
	default:
		return true
	}
}

// mergeValue joins two values elementwise; integer components share the
// state merge's stride context.
func mergeValue(a, b Value, ctx *intval.MergeCtx) Value {
	if a.kind == vBottom {
		return b
	}
	if b.kind == vBottom {
		return a
	}
	if a.kind != b.kind {
		// Verified bytecode cannot mix kinds at a join; degrade safely.
		return TopInt()
	}
	switch a.kind {
	case vRefs:
		return Value{kind: vRefs, refs: a.refs.Union(b.refs), srcs: a.srcs.intersect(b.srcs)}
	default:
		return Value{kind: vInt, iv: intval.Merge(a.iv, b.iv, ctx)}
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case vBottom:
		return "⊥"
	case vRefs:
		s := v.refs.String()
		if v.srcs != nil {
			var parts []string
			for _, k := range v.srcs.keys {
				parts = append(parts, fmt.Sprintf("r%d.f%d", k.ref, k.field))
			}
			s += "≡{" + strings.Join(parts, ",") + "}"
		}
		return s
	default:
		return v.iv.String()
	}
}
