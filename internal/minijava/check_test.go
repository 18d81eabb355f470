package minijava

import (
	"strings"
	"testing"

	"satbelim/internal/bytecode"
)

func mustCheck(t *testing.T, src string) *Checked {
	t.Helper()
	prog := mustParse(t, src)
	ch, err := Check("t.mj", prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return ch
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	prog, err := Parse("t.mj", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, err = Check("t.mj", prog)
	if err == nil {
		t.Fatalf("expected type error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestCheckResolvesLocalsAndFields(t *testing.T) {
	ch := mustCheck(t, `
class T {
    int f;
    static int s;
    void m(int p) {
        int x = p + f + s;
        this.f = x;
        T.s = x;
    }
}
`)
	md := ch.Classes["T"].Methods["m"].Decl
	slots := ch.Slots[md]
	// receiver, p, x
	if len(slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(slots))
	}
	if slots[0].Class != "T" {
		t.Error("slot 0 should be the receiver")
	}
	if slots[1] != bytecode.Int || slots[2] != bytecode.Int {
		t.Error("p and x should be int slots")
	}
	// The initializer `p + f + s` resolved p as local, f as instance
	// field, s as static field.
	vd := md.Body.Stmts[0].(*VarDecl)
	sum := vd.Init.(*Binary)
	inner := sum.X.(*Binary)
	p := inner.X.(*Ident)
	f := inner.Y.(*Ident)
	s := sum.Y.(*Ident)
	if p.Kind != SymLocal || p.Slot != 1 {
		t.Errorf("p resolution: kind=%v slot=%d", p.Kind, p.Slot)
	}
	if f.Kind != SymField || f.Field.Name != "f" {
		t.Errorf("f resolution: kind=%v", f.Kind)
	}
	if s.Kind != SymStaticField {
		t.Errorf("s resolution: kind=%v", s.Kind)
	}
}

func TestCheckStaticAccessThroughClassName(t *testing.T) {
	ch := mustCheck(t, `
class Other { static int counter; static int get() { return counter; } }
class T { static void main() { Other.counter = Other.get() + 1; } }
`)
	md := ch.Classes["T"].Methods["main"].Decl
	asg := md.Body.Stmts[0].(*Assign)
	fa := asg.LHS.(*FieldAccess)
	if !fa.Static || fa.Field.Class != "Other" {
		t.Errorf("static field access: static=%v class=%s", fa.Static, fa.Field.Class)
	}
	call := asg.RHS.(*Binary).X.(*Call)
	if !call.Static || call.Method.Class != "Other" {
		t.Errorf("static call: static=%v class=%s", call.Static, call.Method.Class)
	}
}

func TestCheckVariableShadowsClassName(t *testing.T) {
	// A local variable named like a class takes priority.
	ch := mustCheck(t, `
class Other { int f; }
class T { static void main() { Other Other = new Other(); Other.f = 1; } }
`)
	md := ch.Classes["T"].Methods["main"].Decl
	asg := md.Body.Stmts[1].(*Assign)
	fa := asg.LHS.(*FieldAccess)
	if fa.Static {
		t.Error("access should be instance access via the local, not static")
	}
}

func TestCheckCtorResolution(t *testing.T) {
	ch := mustCheck(t, `
class P { int x; P(int x0) { x = x0; } }
class T { static void main() { P p = new P(3); } }
`)
	md := ch.Classes["T"].Methods["main"].Decl
	no := md.Body.Stmts[0].(*VarDecl).Init.(*NewObject)
	if no.Ctor == nil || no.Ctor.Name != "<init>" || no.Ctor.Class != "P" {
		t.Errorf("ctor = %v", no.Ctor)
	}
}

func TestCheckNullAssignability(t *testing.T) {
	mustCheck(t, `
class T {
    T next;
    static void main() {
        T t = null;
        t = new T();
        t.next = null;
        T[] arr = null;
        arr = new T[2];
        arr[0] = null;
        boolean b = t == null;
        b = null != arr;
    }
}
`)
}

func TestCheckSpawnRules(t *testing.T) {
	mustCheck(t, `
class W { void run() { } }
class T { static void main() { W w = new W(); spawn w.run(); } }
`)
	checkErr(t, `
class W { void run(int x) { } }
class T { static void main() { W w = new W(); spawn w.run(1); } }
`, "spawn target must be a void method with no parameters")
	checkErr(t, `
class W { static void run() { } }
class T { static void main() { spawn W.run(); } }
`, "spawn requires an instance method call")
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`class A {} class A {}`, "duplicate class"},
		{`class A { int x; int x; }`, "duplicate field"},
		{`class A { void m() {} void m() {} }`, "duplicate method"},
		{`class A { Unknown u; }`, "unknown type"},
		{`class A { static void main() { x = 1; } }`, "undefined: x"},
		{`class A { static void main() { int x = true; } }`, "cannot initialize"},
		{`class A { static void main() { int x = 0; int x = 1; } }`, "duplicate variable"},
		{`class A { int f; static void main() { f = 1; } }`, "instance field f referenced from static method"},
		{`class A { static void main() { this.m(); } void m() {} }`, "this is not available"},
		{`class A { static void main() { if (1) print(1); } }`, "must be boolean"},
		{`class A { static void main() { while (2) {} } }`, "must be boolean"},
		{`class A { static void main() { print(true); } }`, "print requires an int"},
		{`class A { int m() { return true; } }`, "cannot return"},
		{`class A { void m() { return 1; } }`, "void method cannot return"},
		{`class A { int m() { return; } }`, "missing return value"},
		{`class A { static void main() { int x = 1; x.f = 2; } }`, "field access on non-object"},
		{`class A { static void main() { A a = new A(); a.nope = 1; } }`, "no field nope"},
		{`class A { static void main() { int x = 5; int y = x[0]; } }`, "indexing non-array"},
		{`class A { static void main() { int[] a = new int[2]; a[true] = 1; } }`, "index must be int"},
		{`class A { static void main() { int n = 3 . length; } }`, ".length on non-array"},
		{`class A { static void main() { B b = new B(); } }`, "unknown type"},
		{`class A { A(int x) {} static void main() { A a = new A(); } }`, "expects 1 arguments"},
		{`class A { static void main() { A a = new A(true); } }`, "expects 0 arguments"},
		{`class A { void m() {} static void main() { m(); } }`, "called from static method"},
		{`class A { static void main() { A a = new A(); a.zap(); } }`, "no method zap"},
		{`class A { static void m() {} static void main() { A a = new A(); a.m(); } }`, "called through instance"},
		{`class A { void m(int x) {} static void main() { A a = new A(); a.m(); } }`, "expects 1 arguments"},
		{`class A { void m(int x) {} static void main() { A a = new A(); a.m(true); } }`, "cannot use boolean as int"},
		{`class A { static void main() { int x = true + 1; } }`, "requires ints"},
		{`class A { static void main() { boolean b = 1 && true; } }`, "requires booleans"},
		{`class A { static void main() { boolean b = 1 == true; } }`, "matching category"},
		{`class A { static void main() { boolean b = !3; } }`, "requires boolean"},
		{`class A { static void main() { int x = -true; } }`, "requires int"},
		{`class A { static void main() { int[] a = new int[true]; } }`, "length must be int"},
		{`class A { static void main() { A a = new A(); a = 5; } }`, "cannot assign"},
		{`class A { int f; static void main() { A.f = 1; } }`, "no static field"},
		{`class A { static void main() { A = 3; } }`, "cannot assign to class"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestCheckBlockScoping(t *testing.T) {
	mustCheck(t, `
class A { static void main() {
    { int x = 1; print(x); }
    { int x = 2; print(x); }
    for (int i = 0; i < 2; i = i + 1) { }
    for (int i = 0; i < 3; i = i + 1) { }
} }
`)
	checkErr(t, `
class A { static void main() { { int x = 1; } print(x); } }
`, "undefined: x")

	// An inner declaration shadows an outer one until its scope closes.
	ch := mustCheck(t, `
class A { static void main() { int x = 1; { int x = 2; print(x); } print(x); } }
`)
	body := ch.Prog.Classes[0].Methods[0].Body.Stmts
	inner := body[1].(*Block).Stmts[1].(*Print).E.(*Ident)
	outer := body[2].(*Print).E.(*Ident)
	if inner.Slot != 1 || outer.Slot != 0 {
		t.Errorf("x reads slot %d inside the block and %d after it, want 1 and 0", inner.Slot, outer.Slot)
	}
}

func TestFindMain(t *testing.T) {
	ch := mustCheck(t, `class A { static void main() {} }`)
	ref, err := ch.FindMain()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Class != "A" || ref.Name != "main" {
		t.Errorf("main = %v", ref)
	}

	ch2 := mustCheck(t, `class A { void helper() {} }`)
	if _, err := ch2.FindMain(); err == nil {
		t.Error("expected no-main error")
	}

	ch3 := mustCheck(t, `class A { static void main() {} } class B { static void main() {} }`)
	if _, err := ch3.FindMain(); err == nil {
		t.Error("expected ambiguous-main error")
	}
}

func TestCheckPaperExpandExample(t *testing.T) {
	// The motivating example from §3.1 of the paper, transliterated.
	ch := mustCheck(t, `
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
	sig := ch.Classes["Util"].Methods["expand"]
	if !sig.Static || !sig.Return.IsRefArray() {
		t.Error("expand signature")
	}
}
