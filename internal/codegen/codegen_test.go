package codegen

import (
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/minijava"
)

func compile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	ast, err := minijava.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ch, err := minijava.Check("t.mj", ast)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := Compile(ch)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func ops(m *bytecode.Method) []bytecode.Op {
	out := make([]bytecode.Op, len(m.Code))
	for i := range m.Code {
		out[i] = m.Code[i].Op
	}
	return out
}

func TestCompileCtorPattern(t *testing.T) {
	p := compile(t, `
class P { int x; P(int x0) { x = x0; } }
class T { static void main() { P p = new P(3); } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	want := []bytecode.Op{
		bytecode.OpNewInstance, bytecode.OpDup, bytecode.OpConst, bytecode.OpInvoke,
		bytecode.OpStore, bytecode.OpReturn,
	}
	got := ops(m)
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %v, want %v\n%s", i, got[i], want[i], bytecode.Disassemble(m, nil))
		}
	}
	if m.Operand(3).Name != "<init>" {
		t.Error("invoke should target the constructor")
	}
}

func TestCompileNoCtorOmitsInvoke(t *testing.T) {
	p := compile(t, `
class P { int x; }
class T { static void main() { P p = new P(); } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	for _, in := range m.Code {
		if in.Op == bytecode.OpInvoke {
			t.Fatal("ctor-less allocation should not emit invoke")
		}
	}
}

func TestCompileDefaultInitLocals(t *testing.T) {
	p := compile(t, `
class T { static void main() { int a; boolean b; T r; int[] xs; } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	got := ops(m)
	want := []bytecode.Op{
		bytecode.OpConst, bytecode.OpStore,
		bytecode.OpConstBool, bytecode.OpStore,
		bytecode.OpConstNull, bytecode.OpStore,
		bytecode.OpConstNull, bytecode.OpStore,
		bytecode.OpReturn,
	}
	if len(got) != len(want) {
		t.Fatalf("ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCompileFieldAndStaticStores(t *testing.T) {
	p := compile(t, `
class T {
    T next;
    static T head;
    void link(T n) { next = n; head = this; }
}
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "link"})
	dis := bytecode.Disassemble(m, nil)
	for _, want := range []string{"load 0", "load 1", "putfield T.next", "putstatic T.head"} {
		if !strings.Contains(dis, want) {
			t.Errorf("missing %q in:\n%s", want, dis)
		}
	}
}

func TestCompileArrayStoreKinds(t *testing.T) {
	p := compile(t, `
class T {
    static void main() {
        int[] a = new int[3];
        T[] b = new T[3];
        a[0] = 1;
        b[0] = null;
        int x = a[1];
        T y = b[1];
    }
}
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	var haveIAS, haveAAS, haveIAL, haveAAL bool
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.OpIAStore:
			haveIAS = true
		case bytecode.OpAAStore:
			haveAAS = true
		case bytecode.OpIALoad:
			haveIAL = true
		case bytecode.OpAALoad:
			haveAAL = true
		}
	}
	if !haveIAS || !haveAAS || !haveIAL || !haveAAL {
		t.Errorf("array op coverage: iastore=%v aastore=%v iaload=%v aaload=%v", haveIAS, haveAAS, haveIAL, haveAAL)
	}
}

func TestCompileShortCircuit(t *testing.T) {
	p := compile(t, `
class T { static boolean f(boolean a, boolean b) { return a && b || a; } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "f"})
	// Short-circuit uses dup + conditional branch + pop.
	var dups, pops, branches int
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.OpDup:
			dups++
		case bytecode.OpPop:
			pops++
		case bytecode.OpIfTrue, bytecode.OpIfFalse:
			branches++
		}
	}
	if dups != 2 || pops != 2 || branches != 2 {
		t.Errorf("short-circuit shape: dup=%d pop=%d branch=%d\n%s", dups, pops, branches, bytecode.Disassemble(m, nil))
	}
}

func TestCompileRefVsIntEquality(t *testing.T) {
	p := compile(t, `
class T { static void main() {
    T a = null;
    boolean r1 = a == null;
    boolean r2 = 1 == 2;
    boolean r3 = true != false;
} }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	var refEq, cmpEq, cmpNe int
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.OpRefEQ:
			refEq++
		case bytecode.OpCmpEQ:
			cmpEq++
		case bytecode.OpCmpNE:
			cmpNe++
		}
	}
	if refEq != 1 || cmpEq != 1 || cmpNe != 1 {
		t.Errorf("equality lowering: refeq=%d cmpeq=%d cmpne=%d", refEq, cmpEq, cmpNe)
	}
}

func TestCompileValueMethodEndsInTrap(t *testing.T) {
	p := compile(t, `
class T { static int f(boolean c) { if (c) return 1; return 0; } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "f"})
	last := m.Code[len(m.Code)-1]
	if last.Op != bytecode.OpTrap {
		t.Errorf("last op = %v, want trap", last.Op)
	}
}

func TestCompileWhileLoopShape(t *testing.T) {
	p := compile(t, `
class T { static int f(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "f"})
	// Find the backward goto.
	var backward bool
	for pc, in := range m.Code {
		if in.Op == bytecode.OpGoto && int(in.A) < pc {
			backward = true
		}
	}
	if !backward {
		t.Errorf("while loop should contain a backward goto:\n%s", bytecode.Disassemble(m, nil))
	}
}

func TestCompileSpawn(t *testing.T) {
	p := compile(t, `
class W { void run() { } }
class T { static void main() { W w = new W(); spawn w.run(); } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	var found bool
	for pc, in := range m.Code {
		if in.Op == bytecode.OpSpawn && m.Operand(pc).Name == "run" {
			found = true
		}
	}
	if !found {
		t.Error("spawn instruction missing")
	}
}

func TestCompilePopsUnusedCallResult(t *testing.T) {
	p := compile(t, `
class T { static int f() { return 1; } static void main() { T.f(); } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	got := ops(m)
	want := []bytecode.Op{bytecode.OpInvoke, bytecode.OpPop, bytecode.OpReturn}
	if len(got) != len(want) {
		t.Fatalf("ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCompileImplicitThisCall(t *testing.T) {
	p := compile(t, `
class T { void a() { b(); } void b() { } }
`)
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "a"})
	got := ops(m)
	want := []bytecode.Op{bytecode.OpLoad, bytecode.OpInvoke, bytecode.OpReturn}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v, want %v", got, want)
		}
	}
}

func TestCompilePaperExpandExample(t *testing.T) {
	p := compile(t, `
class T { int v; }
class Util {
    static T[] expand(T[] ta) {
        T[] new_ta = new T[ta.length * 2];
        for (int i = 0; i < ta.length; i = i + 1)
            new_ta[i] = ta[i];
        return new_ta;
    }
}
`)
	m := p.Method(bytecode.MethodRef{Class: "Util", Name: "expand"})
	dis := bytecode.Disassemble(m, nil)
	for _, want := range []string{"newarray T", "aastore", "aaload", "arraylength"} {
		if !strings.Contains(dis, want) {
			t.Errorf("missing %q in:\n%s", want, dis)
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestCompileKitchenSink drives the remaining lowering paths: statics in
// expressions, instance-field reads via bare identifiers, nested unary
// operators, boolean fields, for loops without clauses, and spawn.
func TestCompileKitchenSink(t *testing.T) {
	p := compile(t, `
class Pair {
    int x;
    boolean flag;
    Pair other;
    static Pair cache;
    static int hits;

    Pair(int x0) { x = x0; }

    void touch() {
        x = -x;
        flag = !flag;
        other = this;
        Pair.cache = this;
        Pair.hits = Pair.hits + 1;
    }

    int poll() {
        if (flag && other != null) return other.x;
        return -(-x);
    }
}
class Main {
    static void main() {
        Pair p = new Pair(4);
        p.touch();
        print(p.poll());
        int guard = 0;
        for (;;) {
            guard = guard + 1;
            if (guard >= 3) { print(guard); return; }
        }
    }
}
`)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := p.Method(bytecode.MethodRef{Class: "Pair", Name: "touch"})
	dis := bytecode.Disassemble(m, nil)
	for _, want := range []string{"putstatic Pair.cache", "getstatic Pair.hits", "putfield Pair.other", "not"} {
		if !strings.Contains(dis, want) {
			t.Errorf("missing %q in touch:\n%s", want, dis)
		}
	}
}

func TestCompileSpawnLowering(t *testing.T) {
	p := compile(t, `
class W { void run() { } }
class Main { static void main() { W w = new W(); spawn w.run(); } }
`)
	m := p.Method(bytecode.MethodRef{Class: "Main", Name: "main"})
	found := false
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpSpawn {
			found = true
		}
	}
	if !found {
		t.Error("spawn not lowered")
	}
}

func TestCompileStaticFieldAssignViaBareName(t *testing.T) {
	p := compile(t, `
class C {
    static C head;
    C next;
    static void push() {
        C c = new C();
        c.next = head;   // bare static read
        head = c;        // bare static write
    }
    static void main() { C.push(); }
}
`)
	m := p.Method(bytecode.MethodRef{Class: "C", Name: "push"})
	dis := bytecode.Disassemble(m, nil)
	for _, want := range []string{"getstatic C.head", "putstatic C.head", "putfield C.next"} {
		if !strings.Contains(dis, want) {
			t.Errorf("missing %q:\n%s", want, dis)
		}
	}
}

func TestCompileNestedIndexAssignment(t *testing.T) {
	p := compile(t, `
class T { int v; }
class Main {
    static void main() {
        T[][] g = new T[2][];
        g[0] = new T[2];
        g[0][1] = new T();
        g[0][1].v = 9;
        print(g[0][1].v);
    }
}
`)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileLongChains: a left-deep chain of operators compiles in a loop
// over its links, so a chain of any length fits the goroutine stack (also
// under -race): a 400 000-term sum and a 100 000-term conjunction, each
// link of which branches just past its own right operand.
func TestCompileLongChains(t *testing.T) {
	wrap := func(typ, expr string) string {
		return "class A { static void main() { " + typ + " x = " + expr + "; } }"
	}
	sum := compile(t, wrap("int", "1"+strings.Repeat("+1", 399999))).Methods()[0]
	if n := strings.Count(bytecode.Disassemble(sum, nil), "add\n"); n != 399999 {
		t.Errorf("the sum compiled to %d adds, want 399999", n)
	}
	and := compile(t, wrap("boolean", "true"+strings.Repeat(" && true", 99999))).Methods()[0]
	links := 0
	for pc, in := range and.Code {
		if in.Op == bytecode.OpIfFalse {
			links++
			if in.A != int64(pc+3) || and.Code[pc-1].Op != bytecode.OpDup || and.Code[pc+1].Op != bytecode.OpPop {
				t.Fatalf("link at pc %d: %v, want dup; iffalse -> %d; pop", pc, &in, pc+3)
			}
		}
	}
	if links != 99999 {
		t.Errorf("the conjunction compiled to %d links, want 99999", links)
	}
}
