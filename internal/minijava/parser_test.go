package minijava

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse("t.mj", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func TestParseClassMembers(t *testing.T) {
	prog := mustParse(t, `
class Point {
    int x, y;
    static int count;
    Point next;

    Point(int x0, int y0) {
        this.x = x0;
        this.y = y0;
    }

    int getX() { return x; }
    static void reset() { count = 0; }
    void run() { }
}
`)
	if len(prog.Classes) != 1 {
		t.Fatalf("classes = %d", len(prog.Classes))
	}
	cd := prog.Classes[0]
	if cd.Name != "Point" {
		t.Errorf("name = %s", cd.Name)
	}
	if len(cd.Fields) != 4 {
		t.Fatalf("fields = %d, want 4", len(cd.Fields))
	}
	if !cd.Fields[2].Static {
		t.Error("count should be static")
	}
	if len(cd.Methods) != 4 {
		t.Fatalf("methods = %d, want 4", len(cd.Methods))
	}
	if !cd.Methods[0].Ctor || cd.Methods[0].Name != "<init>" {
		t.Error("first method should be the constructor")
	}
	if len(cd.Methods[0].Params) != 2 {
		t.Error("ctor params")
	}
	if cd.Methods[1].Return == nil || cd.Methods[1].Return.Base != "int" {
		t.Error("getX return type")
	}
	if !cd.Methods[2].Static {
		t.Error("reset should be static")
	}
	if cd.Methods[3].Return != nil {
		t.Error("run should be void")
	}
}

func TestParseArrayTypes(t *testing.T) {
	prog := mustParse(t, `
class A {
    int[] xs;
    A[][] grid;
    static void main() {
        int[] a = new int[10];
        A[] b = new A[3];
        int[][] c = new int[4][];
        a[0] = a.length;
    }
}
`)
	cd := prog.Classes[0]
	if cd.Fields[0].Type.Base != "int" || cd.Fields[0].Type.Dims != 1 {
		t.Error("xs type")
	}
	if cd.Fields[1].Type.Base != "A" || cd.Fields[1].Type.Dims != 2 {
		t.Error("grid type")
	}
	body := cd.Methods[0].Body
	if len(body.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(body.Stmts))
	}
	na := body.Stmts[2].(*VarDecl).Init.(*NewArray)
	if na.Elem.Base != "int" || na.Elem.Dims != 1 {
		t.Errorf("new int[4][] element = %s dims %d", na.Elem.Base, na.Elem.Dims)
	}
}

func TestParseControlFlow(t *testing.T) {
	prog := mustParse(t, `
class A {
    static void main() {
        int i = 0;
        while (i < 10) { i = i + 1; }
        for (int j = 0; j < 5; j = j + 1) print(j);
        for (;;) { return; }
        if (i == 10) print(1); else print(0);
    }
}
`)
	body := prog.Classes[0].Methods[0].Body
	if _, ok := body.Stmts[1].(*While); !ok {
		t.Error("stmt 1 should be while")
	}
	f := body.Stmts[2].(*For)
	if f.Init == nil || f.Cond == nil || f.Post == nil {
		t.Error("full for loop clauses")
	}
	f2 := body.Stmts[3].(*For)
	if f2.Init != nil || f2.Cond != nil || f2.Post != nil {
		t.Error("empty for clauses should be nil")
	}
	iff := body.Stmts[4].(*If)
	if iff.Else == nil {
		t.Error("else branch missing")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustParse(t, `
class A { static boolean f(int a, int b) { return a + b * 2 < a * -b || a == b && true; } }
`)
	ret := prog.Classes[0].Methods[0].Body.Stmts[0].(*Return)
	or, ok := ret.Value.(*Binary)
	if !ok || or.Op != "||" {
		t.Fatalf("top op = %v", ret.Value)
	}
	lt, ok := or.X.(*Binary)
	if !ok || lt.Op != "<" {
		t.Fatalf("left of || should be <, got %v", or.X)
	}
	add, ok := lt.X.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatal("a + b*2 shape")
	}
	if mul, ok := add.Y.(*Binary); !ok || mul.Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	and, ok := or.Y.(*Binary)
	if !ok || and.Op != "&&" {
		t.Fatal("&& should bind tighter than ||")
	}
}

func TestParsePostfixChains(t *testing.T) {
	prog := mustParse(t, `
class A { static void main() { A x = null; x.b.c[1].d(2).e = null; } }
`)
	asg := prog.Classes[0].Methods[0].Body.Stmts[1].(*Assign)
	fa, ok := asg.LHS.(*FieldAccess)
	if !ok || fa.Name != "e" {
		t.Fatalf("lhs = %T", asg.LHS)
	}
	call, ok := fa.Obj.(*Call)
	if !ok || call.Name != "d" || len(call.Args) != 1 {
		t.Fatalf("call shape: %v", fa.Obj)
	}
	idx, ok := call.Recv.(*Index)
	if !ok {
		t.Fatalf("recv should be index, got %T", call.Recv)
	}
	if _, ok := idx.Arr.(*FieldAccess); !ok {
		t.Fatal("index base should be field access")
	}
}

func TestParseSpawn(t *testing.T) {
	prog := mustParse(t, `
class A { void run() { } static void main() { A a = new A(); spawn a.run(); } }
`)
	sp, ok := prog.Classes[0].Methods[1].Body.Stmts[1].(*Spawn)
	if !ok {
		t.Fatal("expected spawn statement")
	}
	if sp.Call.Name != "run" {
		t.Error("spawn target name")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"", "empty program"},
		{"class A {", "unexpected end of file"},
		{"class A { static void main() { 1 + 2; } }", "must be a call"},
		{"class A { static void main() { x + 1 = 2; } }", "invalid assignment target"},
		{"class A { static void main() { spawn 5; } }", "spawn requires a method call"},
		{"class A { static void main() { new int(3); } }", "cannot construct primitive"},
		{"class A { int f( { } }", "expected type"},
		{"klass A {}", "expected \"class\""},
	}
	for _, c := range cases {
		_, err := Parse("t.mj", c.src)
		if err == nil {
			t.Errorf("source %q: expected error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseMultipleClasses(t *testing.T) {
	prog := mustParse(t, `
class A { B b; }
class B { A a; }
`)
	if len(prog.Classes) != 2 {
		t.Fatalf("classes = %d", len(prog.Classes))
	}
}

func TestParseParenthesizedExpr(t *testing.T) {
	prog := mustParse(t, `class A { static int f() { return (1 + 2) * 3; } }`)
	ret := prog.Classes[0].Methods[0].Body.Stmts[0].(*Return)
	mul := ret.Value.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("top op = %s, want *", mul.Op)
	}
	if add, ok := mul.X.(*Binary); !ok || add.Op != "+" {
		t.Error("parens should group the +")
	}
}

// TestParseNestingBound: nesting past maxNesting is a SyntaxError, where
// the recursion used to overflow the goroutine stack and kill the process
// (450 000 parentheses fit in a megabyte of source). Chains that parse by
// a loop do not nest, however long.
func TestParseNestingBound(t *testing.T) {
	wrap := func(expr string) string {
		return "class N { N n; int[] a; }\nclass A { static void main() { N m = new N(); int x = " + expr + "; print(x); } }"
	}
	deep := 2 * maxNesting
	for name, src := range map[string]string{
		"parentheses": wrap(strings.Repeat("(", 450000) + "1" + strings.Repeat(")", 450000)),
		"unary":       wrap(strings.Repeat("-", deep) + "1"),
		"index":       wrap(strings.Repeat("m.a[", deep) + "0" + strings.Repeat("]", deep)),
		"blocks":      "class A { static void main() { " + strings.Repeat("{", deep) + strings.Repeat("}", deep) + " } }",
		"if":          "class A { static void main() { " + strings.Repeat("if (true) ", deep) + "print(1); } }",
	} {
		_, err := Parse("t.mj", src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nesting deeper than 1000 levels") {
			t.Errorf("%s: err = %v, want a nesting SyntaxError", name, err)
		}
	}

	// Within the bound, and chains of any length.
	shallow := maxNesting - 10
	for name, src := range map[string]string{
		"parentheses": wrap(strings.Repeat("(", shallow) + "1" + strings.Repeat(")", shallow)),
		"sum":         wrap("1" + strings.Repeat("+1", 399999)),
		"postfix":     wrap("m" + strings.Repeat(".n", 100000) + ".a[0]"),
	} {
		prog, err := Parse("t.mj", src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := Check("t.mj", prog); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestParseListsAreExact: node lists share slab chunks, so each must have
// capacity equal to its length, or an append to one would overwrite the
// next.
func TestParseListsAreExact(t *testing.T) {
	prog := mustParse(t, `
class A {
    int v, w;
    static int f(int a, int b) { print(a); print(b); return a; }
    static void main() { print(f(1, 2)); print(f(3, 4)); }
}
`)
	cd := prog.Classes[0]
	f, main := cd.Methods[0], cd.Methods[1]
	call := main.Body.Stmts[0].(*Print).E.(*Call)
	for name, spare := range map[string]int{
		"classes":    cap(prog.Classes) - len(prog.Classes),
		"fields":     cap(cd.Fields) - len(cd.Fields),
		"methods":    cap(cd.Methods) - len(cd.Methods),
		"params":     cap(f.Params) - len(f.Params),
		"statements": cap(f.Body.Stmts) - len(f.Body.Stmts),
		"arguments":  cap(call.Args) - len(call.Args),
	} {
		if spare != 0 {
			t.Errorf("a list of %s has %d spare capacity", name, spare)
		}
	}
}
