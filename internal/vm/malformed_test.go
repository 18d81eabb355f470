package vm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// allocating is T.main running op, with one bad operand o, and dropping
// what it pushes.
func allocating(op bytecode.Op, o bytecode.Operand) *bytecode.Program {
	b := bytecode.NewBuilder("T", "main", true)
	if op == bytecode.OpNewArray {
		b.Const(1)
	}
	b.Emit(bytecode.Instr{Op: op, Ref: b.Operand(o)})
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
	return runVM(New(p, Config{Engine: eng}))
}

// runVM runs v, turning a panic into an error that says so.
func runVM(v *VM) (res *Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err, panicked = fmt.Errorf("panic: %v", r), true
		}
	}()
	res, err = v.Run()
	return res, err, false
}

// TestMalformedProgramsCannotPanicAnEngine: a method's slot count is the
// length of its slot types, so the frame every engine sizes matches what
// the verifier checked — the hand-built T.main prints 7 on all three. Its
// shrunken form (a store to an undeclared slot), a newinstance with no type
// or of an undeclared class, a newarray with no element type, an opcode
// with no mnemonic, a conditional branch that falls off the end, an
// operand index outside the method's pool and a getfield naming a type
// entry are structural faults: no engine runs them, each reports the same
// error before its first step, and none panics.
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
	refOutOfPool := bytecode.NewBuilder("T", "main", true)
	refOutOfPool.Emit(bytecode.Instr{Op: bytecode.OpNewInstance, Ref: 5})
	refOutOfPool.Op(bytecode.OpPop)
	refOutOfPool.Return()
	typeAsField := bytecode.NewBuilder("T", "main", true)
	typeAsField.Null()
	typeAsField.Emit(bytecode.Instr{Op: bytecode.OpGetField, Ref: typeAsField.Operand(bytecode.Operand{Type: bytecode.ClassType("T")})})
	typeAsField.Op(bytecode.OpPop)
	typeAsField.Return()
	for _, tc := range []struct {
		name string
		p    *bytecode.Program
	}{
		{"shrunken slot count", printSeven()},
		{"newinstance with no type", allocating(bytecode.OpNewInstance, bytecode.Operand{})},
		{"newinstance of an undeclared class", allocating(bytecode.OpNewInstance, bytecode.Operand{Type: bytecode.ClassType("Ghost")})},
		{"newarray with no element type", allocating(bytecode.OpNewArray, bytecode.Operand{})},
		{"unknown opcode", allocating(200, bytecode.Operand{})},
		{"conditional branch off the end", mainOnly(branchOffTheEnd)},
		{"operand index outside the pool", mainOnly(refOutOfPool)},
		{"getfield of a type entry", mainOnly(typeAsField)},
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

// confused is a program whose T.main calls T.probe, the body build gives
// it, over classes A {int x; int y; int z} and B {int x}. probe is a
// method of its own so that under TierThreshold 1 the compiled engine runs
// it tiered up.
func confused(build func(b *bytecode.Builder)) *bytecode.Program {
	b := bytecode.NewBuilder("T", "probe", true)
	b.DeclareSlot(bytecode.Int)
	build(b)
	b.Return()
	probe := b.Build()
	mb := bytecode.NewBuilder("T", "main", true)
	mb.Invoke(probe.Ref())
	mb.Return()
	main := mb.Build()
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "A", Fields: []*bytecode.Field{
		{Name: "x", Type: bytecode.Int}, {Name: "y", Type: bytecode.Int}, {Name: "z", Type: bytecode.Int},
	}})
	p.AddClass(&bytecode.Class{Name: "B", Fields: []*bytecode.Field{{Name: "x", Type: bytecode.Int}}})
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{main, probe}})
	p.Main = main.Ref()
	return p
}

// TestTypeConfusedAccessesFault: the structural check does not type the
// operand stack, so a runnable program may name a field of an array or of
// a smaller class than the object's, or index an instance. Every engine
// faults there with one text after one step count; none reads a word of
// the wrong shape or panics.
func TestTypeConfusedAccessesFault(t *testing.T) {
	az := bytecode.FieldRef{Class: "A", Name: "z"}
	intArray := func(b *bytecode.Builder) { b.Const(2); b.NewArray(bytecode.Int) }
	smallB := func(b *bytecode.Builder) { b.New("B") }
	viaLocal := func(produce func(*bytecode.Builder)) func(*bytecode.Builder) {
		return func(b *bytecode.Builder) { produce(b); b.Store(0); b.Load(0) }
	}
	for _, tc := range []struct {
		name, want string
		build      func(b *bytecode.Builder)
	}{
		{"getfield of an int array", "heap: field A.z of an array", func(b *bytecode.Builder) {
			intArray(b)
			b.GetField(az)
			b.Op(bytecode.OpPrint)
		}},
		{"getfield of an int array from a local", "heap: field A.z of an array", func(b *bytecode.Builder) {
			viaLocal(intArray)(b)
			b.GetField(az)
			b.Op(bytecode.OpPrint)
		}},
		{"getfield past a smaller object", "heap: field A.z past the object's 1 fields", func(b *bytecode.Builder) {
			smallB(b)
			b.GetField(az)
			b.Op(bytecode.OpPrint)
		}},
		{"putfield into an int array", "heap: field A.z of an array", func(b *bytecode.Builder) {
			intArray(b)
			b.Const(5)
			b.PutField(az)
		}},
		{"putfield past a smaller object", "heap: field A.z past the object's 1 fields", func(b *bytecode.Builder) {
			viaLocal(smallB)(b)
			b.Const(5)
			b.PutField(az)
		}},
		{"iaload of an instance", "heap: array access to an object that is not an array", func(b *bytecode.Builder) {
			b.New("A")
			b.Const(0)
			b.Op(bytecode.OpIALoad)
			b.Op(bytecode.OpPrint)
		}},
		{"iastore into an instance", "heap: array access to an object that is not an array", func(b *bytecode.Builder) {
			b.New("A")
			b.Const(0)
			b.Const(1)
			b.Op(bytecode.OpIAStore)
		}},
		{"arraylength of an instance", "heap: array access to an object that is not an array", func(b *bytecode.Builder) {
			b.New("A")
			b.Op(bytecode.OpArrayLength)
			b.Op(bytecode.OpPrint)
		}},
	} {
		p := confused(tc.build)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: the structural check rejects it: %v", tc.name, err)
		}
		var wantErr string
		wantSteps := int64(-1)
		for _, eng := range []Engine{EngineSwitch, EngineFused, EngineCompiled} {
			v := New(p, Config{Engine: eng, TierThreshold: 1})
			var re *RuntimeError
			_, err, panicked := runVM(v)
			if panicked || !errors.As(err, &re) || !strings.HasSuffix(re.Msg, tc.want) {
				t.Errorf("%s on %v: %v (panicked %v), want %q", tc.name, eng, err, panicked, tc.want)
				continue
			}
			if eng == EngineCompiled && v.tierUps == 0 {
				t.Errorf("%s: the compiled engine never tiered probe up", tc.name)
			}
			if wantSteps < 0 {
				wantErr, wantSteps = re.Error(), v.steps
			}
			if re.Error() != wantErr || v.steps != wantSteps {
				t.Errorf("%s on %v: %q after %d steps, want %q after %d", tc.name, eng, re.Error(), v.steps, wantErr, wantSteps)
			}
		}
	}
}
