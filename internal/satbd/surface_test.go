package satbd

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
)

// TestInjectedFaultsUnreachable enumerates what configuration can reach
// the analysis — the request schema, the daemon's Config and the build
// options the cache key hashes — the way a JSON decoder, a flag parser or
// a struct literal outside internal/core would: through exported fields
// only. It sets every scalar it can reach and requires that no
// core.Options met on the way picked up an injected fault, which lives in
// the value's unexported state. core.InjectFaults is the control: each
// fault must change that state and nothing exported, or the walk would be
// looking in the wrong place.
func TestInjectedFaultsUnreachable(t *testing.T) {
	optsType := reflect.TypeOf(core.Options{})
	zeroFields := func(v reflect.Value, exported bool) bool {
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() == exported && !v.Field(i).IsZero() {
				return false
			}
		}
		return true
	}
	for i, injected := range []core.Options{
		core.InjectFaults(core.Options{}, true, false),
		core.InjectFaults(core.Options{}, false, true),
	} {
		v := reflect.ValueOf(injected)
		if !zeroFields(v, true) {
			t.Errorf("fault %d is carried by an exported core.Options field: %+v", i, injected)
		}
		if zeroFields(v, false) {
			t.Errorf("fault %d left no trace in core.Options (the cache key could not tell it apart): %+v", i, injected)
		}
	}

	met := 0
	seen := map[reflect.Type]bool{}
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fill(path+"."+f.Name, v.Field(i))
				}
			}
			if v.Type() == optsType {
				met++
				if !zeroFields(v, false) {
					t.Errorf("%s: an exported path set an injected fault: %+v", path, v.Interface())
				}
			}
		case reflect.Pointer:
			if elem := v.Type().Elem(); elem.Kind() == reflect.Struct && !seen[elem] {
				seen[elem] = true
				v.Set(reflect.New(elem))
				fill(path, v.Elem())
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(1)
		case reflect.String:
			v.SetString("x")
		}
		// Maps, slices, interfaces, funcs and channels stay nil: nothing
		// configures them field by field.
	}
	for _, root := range []any{&Request{}, &Config{}, &pipeline.Options{}} {
		v := reflect.ValueOf(root).Elem()
		fill(v.Type().String(), v)
	}
	if met == 0 {
		t.Fatal("the walk never reached a core.Options; pipeline.Options.Analysis should be one")
	}
}
