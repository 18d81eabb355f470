package vm

import (
	"fmt"
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
)

// printSeven is T.main: const 7; store 0; load 0; print; return, over the
// given slot types.
func printSeven(slots ...*bytecode.Type) *bytecode.Program {
	b := bytecode.NewBuilder("T", "main", true)
	for _, st := range slots {
		b.DeclareSlot(st)
	}
	b.Const(7)
	b.Store(0)
	b.Load(0)
	b.Op(bytecode.OpPrint)
	b.Return()
	return mainOnly(b)
}

// allocating is T.main allocating with one bad operand and dropping it.
func allocating(in bytecode.Instr) *bytecode.Program {
	b := bytecode.NewBuilder("T", "main", true)
	if in.Op == bytecode.OpNewArray {
		b.Const(1)
	}
	b.Emit(in)
	b.Op(bytecode.OpPop)
	b.Return()
	return mainOnly(b)
}

func mainOnly(b *bytecode.Builder) *bytecode.Program {
	m := b.Build()
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}})
	p.Main = m.Ref()
	return p
}

// runGuarded runs p on one engine, turning a panic into an error that says
// so.
func runGuarded(p *bytecode.Program, eng Engine) (res *Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err, panicked = fmt.Errorf("panic: %v", r), true
		}
	}()
	res, err = New(p, Config{Engine: eng}).Run()
	return res, err, false
}

// TestMalformedProgramsCannotPanicAnEngine: a method's slot count is the
// length of its slot types, so the frame every engine sizes matches what
// the verifier checked — the hand-built T.main prints 7 on all three. Its
// shrunken form (a store to an undeclared slot), a newinstance with no type
// or of an undeclared class and a newarray with no element type are
// structural faults: each engine reports them (the decoded engines fall
// back to the switch interpreter, as for any body with a fault) and none
// panics.
func TestMalformedProgramsCannotPanicAnEngine(t *testing.T) {
	engines := []Engine{EngineSwitch, EngineFused, EngineCompiled}
	for _, eng := range engines {
		res, err, _ := runGuarded(printSeven(bytecode.Int), eng)
		if err != nil || !reflect.DeepEqual(res.Output, []int64{7}) || res.Engine != eng.String() {
			t.Errorf("T.main on %v: %+v, %v", eng, res, err)
		}
	}
	for _, tc := range []struct {
		name  string
		p     *bytecode.Program
		fails bool // at run time, in the switch interpreter
	}{
		{"shrunken slot count", printSeven(), true},
		{"newinstance with no type", allocating(bytecode.Instr{Op: bytecode.OpNewInstance}), true},
		{"newinstance of an undeclared class", allocating(bytecode.Instr{Op: bytecode.OpNewInstance, Type: bytecode.ClassType("Ghost")}), true},
		{"newarray with no element type", allocating(bytecode.Instr{Op: bytecode.OpNewArray}), false},
	} {
		if tc.p.Validate() == nil {
			t.Errorf("%s: the structural check accepts it", tc.name)
		}
		for _, eng := range engines {
			_, err, panicked := runGuarded(tc.p, eng)
			if panicked || (err != nil) != tc.fails {
				t.Errorf("%s on %v: err = %v", tc.name, eng, err)
			}
		}
	}
}
