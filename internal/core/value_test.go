package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestValueLayout pins the abstract value to the fixed point's facts in one
// 64-byte cache line: states copy, compare and merge Values by the
// thousand, and every field is one that Equal and mergeValue compare (the
// swap detector's annotations live beside the state).
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 64 {
		t.Errorf("Value is %d bytes, want 64", n)
	}
	var fields []string
	for typ, i := reflect.TypeFor[Value](), 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"kind", "refs", "iv", "srcs"}; !slices.Equal(fields, want) {
		t.Errorf("Value has fields %v, want %v", fields, want)
	}
}
