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
// or of an undeclared class, a newarray with no element type, an opcode
// with no mnemonic and a conditional branch that falls off the end are
// structural faults: no engine runs them, each reports the same error
// before its first step, and none panics.
func TestMalformedProgramsCannotPanicAnEngine(t *testing.T) {
	engines := []Engine{EngineSwitch, EngineFused, EngineCompiled}
	for _, eng := range engines {
		res, err, _ := runGuarded(printSeven(bytecode.Int), eng)
		if err != nil || !reflect.DeepEqual(res.Output, []int64{7}) || res.Engine != eng.String() {
			t.Errorf("T.main on %v: %+v, %v", eng, res, err)
		}
	}
	branchOffTheEnd := bytecode.NewBuilder("T", "main", true)
	branchOffTheEnd.Emit(bytecode.Instr{Op: bytecode.OpConstBool})
	branchOffTheEnd.Emit(bytecode.Instr{Op: bytecode.OpIfTrue, A: 0})
	for _, tc := range []struct {
		name string
		p    *bytecode.Program
	}{
		{"shrunken slot count", printSeven()},
		{"newinstance with no type", allocating(bytecode.Instr{Op: bytecode.OpNewInstance})},
		{"newinstance of an undeclared class", allocating(bytecode.Instr{Op: bytecode.OpNewInstance, Type: bytecode.ClassType("Ghost")})},
		{"newarray with no element type", allocating(bytecode.Instr{Op: bytecode.OpNewArray})},
		{"unknown opcode", allocating(bytecode.Instr{Op: 200})},
		{"conditional branch off the end", mainOnly(branchOffTheEnd)},
	} {
		verr := tc.p.Validate()
		if verr == nil {
			t.Errorf("%s: the structural check accepts it", tc.name)
			continue
		}
		for _, eng := range engines {
			res, err, panicked := runGuarded(tc.p, eng)
			if panicked || res != nil || err == nil || err.Error() != "vm: "+verr.Error() {
				t.Errorf("%s on %v: %+v, %v; want %q", tc.name, eng, res, err, "vm: "+verr.Error())
			}
		}
	}
}
