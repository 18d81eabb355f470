package verifier

import (
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/minijava"
)

// compileSrc compiles MiniJava source for end-to-end verifier coverage.
func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	ast, err := minijava.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ch, err := minijava.Check("t.mj", ast)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := codegen.Compile(ch)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestVerifyCompiledPrograms(t *testing.T) {
	srcs := map[string]string{
		"arith": `class A { static int f(int a, int b) { return (a+b)*(a-b)/2 % 7; } }`,
		"fields": `
class N { N next; int v; N(int x) { v = x; next = null; } }
class A { static void main() { N n = new N(1); n.next = new N(2); print(n.next.v); } }`,
		"arrays": `
class T { int v; }
class A { static void main() {
    T[] ts = new T[4];
    for (int i = 0; i < ts.length; i = i + 1) ts[i] = new T();
    int[][] grid = new int[3][];
    grid[0] = new int[3];
    grid[0][1] = 5;
    print(grid[0][1]);
} }`,
		"shortcircuit": `
class A { static boolean f(int x) { return x > 0 && x < 10 || x == 42; } }`,
		"loops": `
class A { static int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { if (i % 2 == 0) s = s + i; else s = s - 1; }
    while (s > 100) s = s / 2;
    return s;
} }`,
		"calls": `
class B { int id; B(int i) { id = i; } int get() { return id; } }
class A { static void main() { B b = new B(7); print(b.get()); } }`,
		"spawn": `
class W { void run() { } }
class A { static void main() { W w = new W(); spawn w.run(); } }`,
		"paperexpand": `
class T { int v; }
class U { static T[] expand(T[] ta) {
    T[] nta = new T[ta.length*2];
    for (int i = 0; i < ta.length; i = i + 1) nta[i] = ta[i];
    return nta;
} }`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			p := compileSrc(t, src)
			if err := VerifyProgram(p); err != nil {
				t.Fatalf("VerifyProgram: %v", err)
			}
			for _, m := range p.Methods() {
				if m.MaxStack <= 0 && len(m.Code) > 1 {
					t.Errorf("%s: MaxStack = %d not set", m.QualifiedName(), m.MaxStack)
				}
			}
		})
	}
}

func TestVerifyMaxStack(t *testing.T) {
	p := compileSrc(t, `class A { static int f(int a) { return a + a * a; } }`)
	m := p.Method(bytecode.MethodRef{Class: "A", Name: "f"})
	if err := Verify(p, m); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 3 {
		t.Errorf("MaxStack = %d, want 3", m.MaxStack)
	}
}

// buildBad assembles a deliberately broken method in class T with field f
// and checks the verifier rejects it with the given message fragment.
func expectReject(t *testing.T, wantSub string, build func(b *bytecode.Builder)) {
	t.Helper()
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "f", Type: bytecode.ClassType("T")},
		{Name: "s", Type: bytecode.Int, Static: true},
	}}
	b := bytecode.NewBuilder("T", "bad", true)
	build(b)
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)
	err := Verify(p, m)
	if err == nil {
		t.Fatalf("expected rejection containing %q, got nil\n%s", wantSub, bytecode.Disassemble(m, nil))
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestVerifyRejectsUnderflow(t *testing.T) {
	expectReject(t, "pop from empty stack", func(b *bytecode.Builder) {
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsTypeConfusion(t *testing.T) {
	expectReject(t, "requires int operand", func(b *bytecode.Builder) {
		b.Null()
		b.Const(1)
		b.Op(bytecode.OpAdd)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsBadStore(t *testing.T) {
	expectReject(t, "cannot store", func(b *bytecode.Builder) {
		s := b.DeclareSlot(bytecode.Int)
		b.Null()
		b.Store(s)
		b.Return()
	})
}

func TestVerifyRejectsDepthMismatchAtJoin(t *testing.T) {
	expectReject(t, "stack depth mismatch", func(b *bytecode.Builder) {
		join := b.NewLabel()
		b.ConstBool(true)
		b.IfTrue(join)
		b.Const(1) // one path pushes an extra value
		b.Bind(join)
		b.Return()
	})
}

func TestVerifyRejectsKindMismatchAtJoin(t *testing.T) {
	expectReject(t, "stack type mismatch", func(b *bytecode.Builder) {
		other, join := b.NewLabel(), b.NewLabel()
		b.ConstBool(true)
		b.IfTrue(other)
		b.Const(1)
		b.Goto(join)
		b.Bind(other)
		b.Null()
		b.Bind(join)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyMergesDistinctClassesToAnyRef(t *testing.T) {
	p := bytecode.NewProgram()
	clsA := &bytecode.Class{Name: "A"}
	clsB := &bytecode.Class{Name: "B"}
	b := bytecode.NewBuilder("A", "m", true)
	other, join := b.NewLabel(), b.NewLabel()
	b.ConstBool(true)
	b.IfTrue(other)
	b.New("A")
	b.Goto(join)
	b.Bind(other)
	b.New("B")
	b.Bind(join)
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()
	clsA.Methods = append(clsA.Methods, m)
	p.AddClass(clsA)
	p.AddClass(clsB)
	if err := Verify(p, m); err != nil {
		t.Fatalf("distinct class merge should verify as any-ref: %v", err)
	}
}

func TestVerifyRejectsBadFieldReceiver(t *testing.T) {
	expectReject(t, "requires a reference", func(b *bytecode.Builder) {
		b.Const(1)
		b.GetField(bytecode.FieldRef{Class: "T", Name: "f"})
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsWrongFieldClass(t *testing.T) {
	expectReject(t, "getfield", func(b *bytecode.Builder) {
		b.Const(3)
		b.NewArray(bytecode.Int) // an int[] is a ref, but not a T
		b.GetField(bytecode.FieldRef{Class: "T", Name: "f"})
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsReturnMismatch(t *testing.T) {
	expectReject(t, "returnvalue in void method", func(b *bytecode.Builder) {
		b.Const(1)
		b.ReturnValue()
	})
}

func TestVerifyRejectsAAStoreOfInt(t *testing.T) {
	expectReject(t, "aastore of non-reference", func(b *bytecode.Builder) {
		b.Const(1)
		b.NewArray(bytecode.ClassType("T"))
		b.Const(0)
		b.Const(5)
		b.Op(bytecode.OpAAStore)
		b.Return()
	})
}

func TestVerifyRejectsIAStoreOfRef(t *testing.T) {
	expectReject(t, "iastore of reference", func(b *bytecode.Builder) {
		b.Const(1)
		b.NewArray(bytecode.Int)
		b.Const(0)
		b.Null()
		b.Op(bytecode.OpIAStore)
		b.Return()
	})
}

func TestVerifyRejectsBadInvokeArg(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	callee := bytecode.NewBuilder("T", "callee", true)
	callee.AddParam(bytecode.Int)
	callee.Return()
	cls.Methods = append(cls.Methods, callee.Build())

	b := bytecode.NewBuilder("T", "caller", true)
	b.Null()
	b.Invoke(bytecode.MethodRef{Class: "T", Name: "callee"})
	b.Return()
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)
	err := Verify(p, m)
	if err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("expected invoke-argument rejection, got %v", err)
	}
}

func TestVerifyNullFlowsIntoRefSlots(t *testing.T) {
	p := compileSrc(t, `
class T { T f; static void main() { T t = new T(); t.f = null; t = null; } }
`)
	if err := VerifyProgram(p); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyBooleanAndArrayOps(t *testing.T) {
	p := compileSrc(t, `
class A {
    static void main() {
        boolean x = true && false || !true;
        int[] a = new int[2];
        a[0] = 3;
        print(a[0]);
        boolean[] bs = new boolean[1];
        bs[0] = x;
        if (bs[0]) print(1);
    }
}
`)
	if err := VerifyProgram(p); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsSpawnOfStatic(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	callee := bytecode.NewBuilder("T", "s", true)
	callee.Return()
	cls.Methods = append(cls.Methods, callee.Build())
	b := bytecode.NewBuilder("T", "bad", true)
	b.New("T")
	b.Spawn(bytecode.MethodRef{Class: "T", Name: "s"})
	b.Return()
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)
	if err := Verify(p, m); err == nil || !strings.Contains(err.Error(), "spawn target") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsArrayLengthOnObject(t *testing.T) {
	expectReject(t, "arraylength", func(b *bytecode.Builder) {
		b.New("T")
		b.Op(bytecode.OpArrayLength)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsAALoadOnIntArray(t *testing.T) {
	expectReject(t, "aaload", func(b *bytecode.Builder) {
		b.Const(2)
		b.NewArray(bytecode.Int)
		b.Const(0)
		b.Op(bytecode.OpAALoad)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsIALoadOnRefArray(t *testing.T) {
	expectReject(t, "iaload", func(b *bytecode.Builder) {
		b.Const(2)
		b.NewArray(bytecode.ClassType("T"))
		b.Const(0)
		b.Op(bytecode.OpIALoad)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsReturnWithoutValueInIntMethod(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "bad", true)
	b.SetReturn(bytecode.Int)
	b.Return() // void return in int method
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)
	if err := Verify(p, m); err == nil || !strings.Contains(err.Error(), "return without value") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsOrderedCompareOnBooleans(t *testing.T) {
	expectReject(t, "cmplt", func(b *bytecode.Builder) {
		b.ConstBool(true)
		b.ConstBool(false)
		b.Op(bytecode.OpCmpLT)
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyNopAndTrap(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "m", true)
	b.SetReturn(bytecode.Int)
	b.Op(bytecode.OpNop)
	b.Const(1)
	b.ReturnValue()
	b.Op(bytecode.OpTrap) // unreachable but must verify
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)
	if err := Verify(p, m); err != nil {
		t.Fatal(err)
	}
}
