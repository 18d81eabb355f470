package bytecode

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// pointerFree reports whether values of t hold no Go pointer: no pointer,
// string, slice, map, channel, function or interface, at any depth.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return false
	}
	return true
}

// TestInstrLayout pins the instruction to three words with no pointer: the
// code generator, the inliner's work buffer, its splices and its exact-size
// copies move code arrays by the megabyte, and an array of pointer-free
// elements copies as plain memory, with no write barrier, and is never
// scanned by the Go collector. What an instruction names lives in its
// method's operand pool.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 24 {
		t.Errorf("Instr is %d bytes, want 24", n)
	}
	typ := reflect.TypeFor[Instr]()
	for i := range typ.NumField() {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("Instr.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
	var fields []string
	for i := range typ.NumField() {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"A", "Line", "Ref", "Op"}; !slices.Equal(fields, want) {
		t.Errorf("Instr has fields %v, want %v", fields, want)
	}
}

// TestBuilderInternsOperands: the methods of one Builder share its pool,
// and an operand named twice is one entry — a name however many
// instructions name it, whether as a field or as a method, and a class
// type by its class, since ClassType makes a new *Type per call.
func TestBuilderInternsOperands(t *testing.T) {
	b := NewBuilder("T", "a", true)
	b.GetField(FieldRef{Class: "T", Name: "f"})
	b.PutField(FieldRef{Class: "T", Name: "f"})
	b.New("T")
	b.NewArray(ClassType("T"))
	b.NewArray(Int)
	a := b.Build()
	b.Start("T", "b", true)
	b.Invoke(MethodRef{Class: "T", Name: "f"})
	b.GetStatic(FieldRef{Class: "T", Name: "g"})
	m := b.Build()
	if a.Pool != m.Pool {
		t.Fatal("two methods of one Builder have two pools")
	}
	var got []string
	for i := range a.Pool.Len() {
		got = append(got, a.Pool.At(int32(i)).String())
	}
	if want := []string{"T.f", "T", "int", "T.g"}; !slices.Equal(got, want) {
		t.Errorf("pool = %v, want %v", got, want)
	}
	if refs := []int32{a.Code[0].Ref, a.Code[1].Ref, a.Code[2].Ref, a.Code[3].Ref, m.Code[0].Ref}; !slices.Equal(refs, []int32{0, 0, 1, 1, 0}) {
		t.Errorf("operand indices %v, want [0 0 1 1 0]", refs)
	}
	if NewBuilder("T", "c", true).Build().Pool == a.Pool {
		t.Error("a stand-alone NewBuilder shares another Builder's pool")
	}
}

// TestPoolConcatWritesNeither: the inliner gives a caller that takes in a
// callee with another pool a new pool, the caller's entries then the
// callee's; the pools it started from, which other programs may reach, are
// unchanged.
func TestPoolConcatWritesNeither(t *testing.T) {
	p, q := &Pool{entries: []Operand{{Class: "A", Name: "f"}}}, &Pool{entries: []Operand{{Type: Int}, {Class: "B", Name: "g"}}}
	r := p.Concat(q)
	if p.Len() != 1 || q.Len() != 2 || r.Len() != 3 {
		t.Fatalf("lengths %d, %d, %d; want 1, 2, 3", p.Len(), q.Len(), r.Len())
	}
	for i := range q.Len() {
		if *r.At(int32(p.Len() + i)) != *q.At(int32(i)) {
			t.Errorf("entry %d of q is not entry %d of the concatenation", i, p.Len()+i)
		}
	}
	if (*Pool)(nil).Concat(q).Len() != 2 || p.Concat(nil).Len() != 1 {
		t.Error("a nil pool is not an empty one")
	}
}
