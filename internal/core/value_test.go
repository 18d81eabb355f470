package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"satbelim/internal/domain"
)

// TestValueLayout pins the abstract value to the fixed point's facts in one
// 64-byte cache line: states copy, compare and merge Values by the
// thousand, and every field is one that Equal and mergeValue compare (the
// swap detector's annotations live beside the state).
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(domain.Value{}); n != 64 {
		t.Errorf("domain.Value is %d bytes, want 64", n)
	}
	var fields []string
	for typ, i := reflect.TypeFor[domain.Value](), 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"kind", "refs", "iv", "srcs"}; !slices.Equal(fields, want) {
		t.Errorf("domain.Value has fields %v, want %v", fields, want)
	}
}
