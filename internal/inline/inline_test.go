package inline

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/verifier"
)

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

func countOp(m *bytecode.Method, op bytecode.Op) int {
	n := 0
	for pc := range m.Code {
		if m.Code[pc].Op == op {
			n++
		}
	}
	return n
}

const ctorSrc = `
class P { int x; P(int x0) { x = x0; } int get() { return x; } }
class T { static void main() { P p = new P(3); print(p.get()); } }
`

func TestInlineZeroLimitIsIdentityShape(t *testing.T) {
	p := compileSrc(t, ctorSrc)
	res := Apply(p, Options{Limit: 0})
	if res.Expanded != 0 {
		t.Errorf("Expanded = %d, want 0", res.Expanded)
	}
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if countOp(m, bytecode.OpInvoke) != 2 {
		t.Errorf("invokes = %d, want 2", countOp(m, bytecode.OpInvoke))
	}
	if res.Remaining != 2 {
		t.Errorf("Remaining = %d, want 2", res.Remaining)
	}
}

// TestApplyRewritesInPlace: Apply returns the program it was given. At
// limit 0 it changes nothing, the records built before included; when it
// expands, the Body records and the verdict table built before, which
// describe the code before, do not survive it, and a method without an
// expanded site keeps its code.
func TestApplyRewritesInPlace(t *testing.T) {
	main := bytecode.MethodRef{Class: "T", Name: "main"}
	prepare := func() (*bytecode.Program, *bytecode.Body, *bytecode.Verdicts) {
		p := compileSrc(t, ctorSrc)
		if err := p.Validate(); err != nil { // builds every record
			t.Fatal(err)
		}
		rows := make([][]bytecode.Verdict, len(p.Methods()))
		return p, p.BodyOf(p.Method(main)), p.SetVerdicts(rows)
	}

	p, body, vt := prepare()
	code := p.Method(main).Code
	if res := Apply(p, Options{Limit: 0}); res.Program != p {
		t.Fatal("Apply at limit 0 returned another program")
	}
	if m := p.Method(main); &m.Code[0] != &code[0] || len(m.Code) != len(code) || p.BodyOf(m) != body || p.Verdicts() != vt {
		t.Error("Apply at limit 0 changed the program")
	}

	p, body, vt = prepare()
	get := p.Method(bytecode.MethodRef{Class: "P", Name: "get"})
	getCode := get.Code
	if res := Apply(p, Options{Limit: 100}); res.Program != p || res.Expanded == 0 {
		t.Fatalf("Apply at limit 100 returned %p (want %p), expanding %d sites", res.Program, p, res.Expanded)
	}
	m := p.Method(main)
	if countOp(m, bytecode.OpInvoke) != 0 {
		t.Errorf("main was not rewritten in place:\n%s", bytecode.Disassemble(m, nil))
	}
	if &get.Code[0] != &getCode[0] {
		t.Error("a method with no expanded site got new code")
	}
	if got := p.BodyOf(m); got == body || len(got.FieldAt) != len(m.Code) {
		t.Error("the record of main built before Apply survived it")
	}
	if p.Verdicts() == vt {
		t.Error("the verdict table installed before Apply survived it")
	}
}

func TestInlineCtorAndGetter(t *testing.T) {
	p := compileSrc(t, ctorSrc)
	res := Apply(p, Options{Limit: 100})
	if res.Expanded != 2 {
		t.Errorf("Expanded = %d, want 2", res.Expanded)
	}
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if got := countOp(m, bytecode.OpInvoke); got != 0 {
		t.Errorf("invokes after inlining = %d, want 0:\n%s", got, bytecode.Disassemble(m, nil))
	}
	// The inlined body must still be verifiable and valid.
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Constructor's putfield must now appear inside main.
	if countOp(m, bytecode.OpPutField) != 1 {
		t.Errorf("putfield not inlined into main:\n%s", bytecode.Disassemble(m, nil))
	}
}

func TestInlineRespectsLimit(t *testing.T) {
	// get is tiny; a method with a long body stays out at small limits.
	src := `
class P {
    int x;
    int get() { return x; }
    int big(int a) {
        int s = 0;
        s = s + a * 3; s = s + a * 5; s = s + a * 7; s = s + a * 11;
        s = s + a * 13; s = s + a * 17; s = s + a * 19; s = s + a * 23;
        return s;
    }
}
class T { static void main() { P p = new P(); print(p.get() + p.big(2)); } }
`
	p := compileSrc(t, src)
	big := p.Method(bytecode.MethodRef{Class: "P", Name: "big"})
	small := p.Method(bytecode.MethodRef{Class: "P", Name: "get"})
	limit := small.Size() + 1
	if big.Size() <= limit {
		t.Fatalf("test premise broken: big=%d small=%d", big.Size(), small.Size())
	}
	res := Apply(p, Options{Limit: limit})
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if got := countOp(m, bytecode.OpInvoke); got != 1 {
		t.Errorf("invokes = %d, want 1 (big only):\n%s", got, bytecode.Disassemble(m, nil))
	}
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpInvoke && m.Operand(pc).Name != "big" {
			t.Errorf("wrong call left behind: %s", m.Operand(pc))
		}
	}
}

func TestInlineTransitiveChain(t *testing.T) {
	src := `
class C {
    static int a() { return b() + 1; }
    static int b() { return c() + 1; }
    static int c() { return 40; }
}
class T { static void main() { print(C.a()); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 200})
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if got := countOp(m, bytecode.OpInvoke); got != 0 {
		t.Errorf("chain not fully inlined, %d invokes left:\n%s", got, bytecode.Disassemble(m, nil))
	}
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestInlineDirectRecursionNotExpanded(t *testing.T) {
	src := `
class C { static int fact(int n) { if (n <= 1) return 1; return n * C.fact(n - 1); } }
class T { static void main() { print(C.fact(5)); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 1000})
	fact := res.Program.Method(bytecode.MethodRef{Class: "C", Name: "fact"})
	if got := countOp(fact, bytecode.OpInvoke); got != 1 {
		t.Errorf("fact should keep its recursive call, invokes = %d", got)
	}
	// main may inline fact's body once; the recursive call inside stays.
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestInlineMutualRecursionTerminates(t *testing.T) {
	src := `
class C {
    static int even(int n) { if (n == 0) return 1; return C.odd(n - 1); }
    static int odd(int n) { if (n == 0) return 0; return C.even(n - 1); }
}
class T { static void main() { print(C.even(10)); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 1000})
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Neither even nor odd may have absorbed the other into a cycle:
	// each keeps at least one invoke.
	even := res.Program.Method(bytecode.MethodRef{Class: "C", Name: "even"})
	odd := res.Program.Method(bytecode.MethodRef{Class: "C", Name: "odd"})
	if countOp(even, bytecode.OpInvoke) == 0 && countOp(odd, bytecode.OpInvoke) == 0 {
		t.Error("mutual recursion cannot be fully inlined away")
	}
}

func TestInlineBranchTargetsRemapped(t *testing.T) {
	src := `
class C { static int abs(int x) { if (x < 0) return -x; return x; } }
class T {
    static void main() {
        int i = 0;
        while (i < 3) {
            print(C.abs(i - 1));
            i = i + 1;
        }
    }
}
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 100})
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if countOp(m, bytecode.OpInvoke) != 0 {
		t.Errorf("abs not inlined:\n%s", bytecode.Disassemble(m, nil))
	}
}

func TestInlineCallerCap(t *testing.T) {
	src := `
class C { static int f() { return 1; } }
class T { static void main() { print(C.f() + C.f() + C.f()); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 100, CallerCap: p.Method(bytecode.MethodRef{Class: "T", Name: "main"}).Size() + 3})
	// Cap allows at most one expansion (f is ~4 bytes); at least one call
	// must remain.
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if countOp(m, bytecode.OpInvoke) == 0 {
		t.Error("caller cap should have stopped full expansion")
	}
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestInlineSlotRemapPreservesSemantics(t *testing.T) {
	// Callee uses several locals; ensure remapped slots don't collide
	// with caller slots (verified stack discipline plus valid slots).
	src := `
class C {
    static int mix(int a, int b) {
        int t1 = a * 2;
        int t2 = b * 3;
        int t3 = t1 + t2;
        return t3;
    }
}
class T { static void main() { int x = 5; int y = 7; print(C.mix(x, y)); print(x + y); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 100})
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if countOp(m, bytecode.OpInvoke) != 0 {
		t.Fatalf("mix not inlined:\n%s", bytecode.Disassemble(m, nil))
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if m.NumSlots() < 7 {
		t.Errorf("expected extra slots for callee locals, NumSlots = %d", m.NumSlots())
	}
}

func TestInlineMultipleReturnPaths(t *testing.T) {
	src := `
class C { static int sign(int x) { if (x < 0) return -1; if (x > 0) return 1; return 0; } }
class T { static void main() { print(C.sign(-5) + C.sign(5) + C.sign(0)); } }
`
	p := compileSrc(t, src)
	res := Apply(p, Options{Limit: 100})
	if err := verifier.VerifyProgram(res.Program); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	m := res.Program.Method(bytecode.MethodRef{Class: "T", Name: "main"})
	if countOp(m, bytecode.OpInvoke) != 0 {
		t.Errorf("sign not inlined at all 3 sites")
	}
}

func TestProcessingOrderBottomUp(t *testing.T) {
	src := `
class C {
    static int leaf() { return 1; }
    static int mid() { return C.leaf() + 1; }
    static int top() { return C.mid() + 1; }
}
class T { static void main() { print(C.top()); } }
`
	p := compileSrc(t, src)
	methods := p.Methods()
	cond := bytecode.Condense(bytecode.BuildCallGraph(p))
	pos := map[string]int{}
	n := 0
	for _, scc := range cond.SCCs {
		for _, mi := range scc.Members {
			pos[methods[mi].QualifiedName()] = n
			n++
		}
	}
	if !(pos["C.leaf"] < pos["C.mid"] && pos["C.mid"] < pos["C.top"] && pos["C.top"] < pos["T.main"]) {
		t.Errorf("order not bottom-up: %v", pos)
	}
	if n != len(methods) {
		t.Errorf("order misses methods: %d vs %d", n, len(methods))
	}
}

// onCycle computes, without the condensation the inliner uses, which
// methods can reach themselves through invokes: the transitive closure of
// the call graph read off the code by name.
func onCycle(p *bytecode.Program) map[bytecode.MethodRef]bool {
	methods := p.Methods()
	num := map[bytecode.MethodRef]int{}
	for i, m := range methods {
		num[m.Ref()] = i
	}
	reach := make([][]bool, len(methods))
	for i, m := range methods {
		reach[i] = make([]bool, len(methods))
		for pc := range m.Code {
			if m.Code[pc].Op == bytecode.OpInvoke {
				reach[i][num[m.Operand(pc).Method()]] = true
			}
		}
	}
	for k := range methods {
		for i := range methods {
			for j := range methods {
				reach[i][j] = reach[i][j] || reach[i][k] && reach[k][j]
			}
		}
	}
	out := map[bytecode.MethodRef]bool{}
	for i, m := range methods {
		out[m.Ref()] = reach[i][i]
	}
	return out
}

// checkExpansion holds the inliner's result for p against the rule it
// implements: a call site is expanded exactly when its callee is on no
// cycle of the original call graph and its final body fits the limit (the
// caller cap must not bind in these programs). Expanding a site replaces
// it by the callee's own remaining sites and gives the caller the callee's
// slots, so each method's invoke sequence and slot count say which sites
// were expanded — a self-recursive callee expanded once leaves the same
// sequence but not the same slot count.
func checkExpansion(t *testing.T, name string, p *bytecode.Program, limit int) {
	t.Helper()
	res := Apply(p.Clone(), Options{Limit: limit})
	out := res.Program
	if err := verifier.VerifyProgram(out); err != nil {
		t.Errorf("%s limit %d: %v", name, limit, err)
		return
	}
	cyclic := onCycle(p)
	type shape struct {
		seq   []bytecode.MethodRef
		slots int
	}
	memo := map[bytecode.MethodRef]*shape{}
	expanded := 0
	var want func(m *bytecode.Method) *shape
	want = func(m *bytecode.Method) *shape {
		if sh := memo[m.Ref()]; sh != nil {
			return sh
		}
		sh := &shape{slots: m.NumSlots()}
		memo[m.Ref()] = sh
		for pc := range m.Code {
			if m.Code[pc].Op != bytecode.OpInvoke {
				continue
			}
			ref := m.Operand(pc).Method()
			if cyclic[ref] || out.Method(ref).Size() > limit {
				sh.seq = append(sh.seq, ref)
				continue
			}
			expanded++
			callee := want(p.Method(ref))
			sh.seq = append(sh.seq, callee.seq...)
			sh.slots += callee.slots
		}
		return sh
	}
	remaining := 0
	for _, m := range p.Methods() {
		got := out.Method(m.Ref())
		var seq []bytecode.MethodRef
		for pc := range got.Code {
			if got.Code[pc].Op == bytecode.OpInvoke {
				ref := got.Operand(pc).Method()
				seq = append(seq, ref)
				if got.Size()+out.Method(ref).Size() > DefaultCallerCap {
					t.Fatalf("%s limit %d: the caller cap binds in %s; the model ignores it", name, limit, m.QualifiedName())
				}
			}
		}
		sh := want(m)
		if !slices.Equal(seq, sh.seq) || got.NumSlots() != sh.slots {
			t.Errorf("%s limit %d: %s has %d slots and calls %v; expanding exactly the acyclic callees within the limit gives %d slots and %v",
				name, limit, m.QualifiedName(), got.NumSlots(), seq, sh.slots, sh.seq)
		}
		remaining += len(seq)
	}
	if res.Expanded != expanded || res.Remaining != remaining {
		t.Errorf("%s limit %d: Expanded = %d and Remaining = %d; the rule expands %d sites and the program has %d invokes",
			name, limit, res.Expanded, res.Remaining, expanded, remaining)
	}
}

// TestExpansionRuleHandWritten: self recursion, mutual recursion entered
// from outside and from a helper both arms call, and a diamond.
func TestExpansionRuleHandWritten(t *testing.T) {
	for name, src := range map[string]string{
		"self": `
class C { static int fact(int n) { if (n <= 1) return 1; return n * C.fact(n - 1); } }
class T { static void main() { print(C.fact(5)); } }`,
		"mutual": `
class C {
    static int one() { return 1; }
    static int even(int n) { if (n == 0) return C.one(); return C.odd(n - 1); }
    static int odd(int n) { if (n == 0) return 0; return C.even(n - C.one()); }
    static int both(int n) { return C.even(n) + C.odd(n); }
}
class T { static void main() { print(C.both(10)); print(C.even(3)); } }`,
		"diamond": `
class C {
    static int leaf(int n) { return n + 1; }
    static int left(int n) { return C.leaf(n) * 2; }
    static int right(int n) { return C.leaf(n) * 3; }
    static int top(int n) { return C.left(n) + C.right(n); }
}
class T { static void main() { print(C.top(1)); } }`,
	} {
		p := compileSrc(t, src)
		for _, limit := range []int{8, 25, 1000} {
			checkExpansion(t, name, p, limit)
		}
	}
}

// TestExpansionRuleGenerated: the same rule over generated programs with
// mutual recursion and deep call chains.
func TestExpansionRuleGenerated(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := compileSrc(t, progen.Generate(seed, progen.CampaignConfig()))
		for _, limit := range []int{10, 25, 100, 1000} {
			checkExpansion(t, fmt.Sprintf("seed %d", seed), p, limit)
		}
	}
}

// acrossPools hand-builds T.main, which allocates a P and calls its set;
// P.set, which stores into next, reads x and calls P.log; and P.log, twenty
// nops long. start begins each method: on three NewBuilders the three have
// three operand pools, on one Builder one.
func acrossPools(start func(class, name string, static bool) *bytecode.Builder) *bytecode.Program {
	p := bytecode.NewProgram()
	pt := bytecode.ClassType("P")

	b := start("T", "main", true)
	slot := b.DeclareSlot(pt)
	b.New("P")
	b.Store(slot)
	b.Load(slot)
	b.Load(slot)
	b.Invoke(bytecode.MethodRef{Class: "P", Name: "set"})
	b.Return()
	main := b.Build()

	b = start("P", "set", false)
	b.DeclareSlot(pt)
	b.AddParam(pt)
	b.Load(0)
	b.Load(1)
	b.PutField(bytecode.FieldRef{Class: "P", Name: "next"})
	b.Load(0)
	b.GetField(bytecode.FieldRef{Class: "P", Name: "x"})
	b.Invoke(bytecode.MethodRef{Class: "P", Name: "log"})
	b.Return()
	set := b.Build()

	b = start("P", "log", true)
	b.AddParam(bytecode.Int)
	for range 20 {
		b.Op(bytecode.OpNop)
	}
	b.Return()
	log := b.Build()

	p.AddClass(&bytecode.Class{Name: "P", Fields: []*bytecode.Field{{Name: "x", Type: bytecode.Int}, {Name: "next", Type: pt}},
		Methods: []*bytecode.Method{set, log}})
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{main}})
	p.Main = main.Ref()
	return p
}

// TestInlineAcrossPools: a callee's operands index its own pool. Expanding
// it into a caller with another pool must carry its entries over, so the
// caller names the callee's fields and methods: the result is the program
// that one shared pool gives, disassembly for disassembly, and it verifies.
// The pools the methods started with are not written.
func TestInlineAcrossPools(t *testing.T) {
	apart := acrossPools(bytecode.NewBuilder)
	shared := acrossPools((&bytecode.Builder{}).Start)
	main := bytecode.MethodRef{Class: "T", Name: "main"}
	if apart.Method(main).Pool == apart.Method(bytecode.MethodRef{Class: "P", Name: "set"}).Pool {
		t.Fatal("test premise broken: the stand-alone methods share a pool")
	}
	pools := map[*bytecode.Pool]int{}
	for _, m := range apart.Methods() {
		pools[m.Pool] = m.Pool.Len()
	}
	// set expands into main; log, over the limit, stays a call.
	limit := apart.Method(bytecode.MethodRef{Class: "P", Name: "set"}).Size()
	for _, p := range []*bytecode.Program{apart, shared} {
		if res := Apply(p, Options{Limit: limit}); res.Expanded != 1 {
			t.Fatalf("Expanded = %d, want 1", res.Expanded)
		}
	}
	got, want := bytecode.Disassemble(apart.Method(main), nil), bytecode.Disassemble(shared.Method(main), nil)
	if got != want {
		t.Errorf("across pools, T.main is\n%s\nwith one pool\n%s", got, want)
	}
	for _, name := range []string{"putfield P.next", "getfield P.x", "invoke P.log"} {
		if !strings.Contains(got, name) {
			t.Errorf("T.main does not name %q:\n%s", name, got)
		}
	}
	if err := verifier.VerifyProgram(apart); err != nil {
		t.Error(err)
	}
	for pool, n := range pools {
		if pool.Len() != n {
			t.Errorf("a pool of %d entries now has %d", n, pool.Len())
		}
	}
}
