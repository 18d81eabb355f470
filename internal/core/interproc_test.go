package core

import (
	"testing"

	"satbelim/internal/bytecode"
)

// Tests for the whole-program summary pass: ReturnsFresh call-site
// modeling, ArgPreNullFields precision, the contents abstraction (the
// arg-field-publish soundness hole), per-SCC budgets, and the injected
// trust-all unsoundness knob.

func TestReturnsFreshCallSiteElidable(t *testing.T) {
	// mk returns a brand-new object with null reference fields: the
	// caller models the call site like an allocation site, so the
	// post-call initializing store is pre-null even at inline limit 0.
	src := `
class T { int v; T f; }
class M {
    static T mk() { return new T(); }
    static void main() {
        T t = M.mk();
        t.f = new T();
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 1 {
		t.Errorf("fresh-return store should be elided, got %v:\n%s", f, dis(p, m))
	}
	// Without summaries the result is just GlobalRef: no elision.
	p0, _ := analyzeSrc(t, src, 0, optsA())
	m0 := p0.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f0, _, _ := elisions(p0, m0); len(f0) != 0 {
		t.Errorf("without summaries the store must keep its barrier, got %v", f0)
	}
}

func TestReturnsFreshThroughCallChain(t *testing.T) {
	// Freshness composes: chain's returned value is mk's fresh result
	// (a refCall reference), which the strict check accepts.
	src := `
class T { T f; }
class M {
    static T mk() { return new T(); }
    static T chain() { return M.mk(); }
    static void main() {
        T t = M.chain();
        t.f = new T();
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 1 {
		t.Errorf("chained fresh return should keep the elision, got %v:\n%s", f, dis(p, m))
	}
}

func TestReturnNotFreshWhenFieldInitialized(t *testing.T) {
	// mkInit returns an object whose reference field is already non-null:
	// treating the call like an allocation would mint a false pre-null
	// fact, so the strict freshness check must reject it and the caller's
	// store must keep its barrier.
	src := `
class T { T f; }
class M {
    static T mkInit() { T t = new T(); t.f = new T(); return t; }
    static void main() {
        T t = M.mkInit();
        t.f = new T();
    }
}
`
	p, _ := analyzeI(t, src)
	sums, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sums.Of(p, bytecode.MethodRef{Class: "M", Name: "mkInit"}).ReturnsFresh {
		t.Error("non-null-field return must not be fresh")
	}
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 0 {
		t.Errorf("store into initialized field must keep its barrier, got %v", f)
	}
}

func TestReturnNotFreshWhenEscapedOrArgReachable(t *testing.T) {
	src := `
class T { int v; T f; static T sink; }
class M {
    static T leak() { T t = new T(); T.sink = t; return t; }
    static T give(T t) { return t.f; }
    static void main() { T a = M.leak(); T b = M.give(a); }
}
`
	// Summaries exist for invoked methods only, so main calls both.
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	sums, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sums.Of(p, bytecode.MethodRef{Class: "M", Name: "leak"}).ReturnsFresh {
		t.Error("escaped return must not be fresh")
	}
	if sums.Of(p, bytecode.MethodRef{Class: "M", Name: "give"}).ReturnsFresh {
		t.Error("argument-reachable return must not be fresh")
	}
}

func TestFreshReturnIntFieldsTainted(t *testing.T) {
	// mkv initializes an int field of its fresh result: the caller must
	// read ⊤ (not the allocation default 0) for it, or a stale index
	// proof would unsoundly elide the array store below.
	src := `
class T { int v; T f; }
class M {
    static T mkv() { T t = new T(); t.v = 3; return t; }
    static void main() {
        T t = M.mkv();
        T[] a = new T[4];
        a[t.v] = t;
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if _, arr, _ := elisions(p, m); len(arr) != 0 {
		t.Errorf("store indexed by callee-written int must keep its barrier, got %v:\n%s",
			arr, dis(p, m))
	}
}

func TestCtorSummaryPreservesUntouchedFieldFacts(t *testing.T) {
	// The constructor writes only field a of its receiver: with
	// ArgPreNullFields the caller keeps its pre-null fact about the
	// untouched field b, so the post-construction t.b store is elidable
	// even with the constructor call not inlined.
	src := `
class T { T a; T b;
    T(T x) { a = x; }
}
class M {
    static void main() {
        T t = new T(null);
        t.b = new T(null);
    }
}
`
	p, _ := analyzeI(t, src)
	sums, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctor := sums.Of(p, bytecode.MethodRef{Class: "T", Name: "<init>"})
	if ctor.ArgCompromised[0] {
		t.Fatal("constructor receiver must stay uncompromised")
	}
	if ctor.PreNullNamed(p, 0, "T.a") {
		t.Error("written field T.a must leave the receiver's pre-null set")
	}
	if !ctor.PreNullNamed(p, 0, "T.b") {
		t.Error("untouched field T.b must stay in the receiver's pre-null set")
	}
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	// The ctor's own `a = x` store is in <init>; main's t.b store is the
	// one at stake here.
	if len(f) != 1 {
		t.Errorf("t.b store should stay elidable past the ctor call, got %v:\n%s",
			f, dis(p, m))
	}
}

func TestSummaryArgFieldPublishCompromises(t *testing.T) {
	// Regression for the contents-abstraction soundness hole: foo
	// publishes q.link — an object the CALLER can reach (y below). The
	// summary must compromise q, or the caller would keep elisions on
	// objects that escaped through the argument's contents.
	src := `
class C { C link; C g; static C gs; }
class M {
    static int foo(C q) { C.gs = q.link; return 0; }
    static void main() {
        C y = new C();
        C x = new C();
        x.link = y;
        print(M.foo(x));
        y.g = new C();
    }
}
`
	p, _ := analyzeI(t, src)
	sums, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sums.Of(p, bytecode.MethodRef{Class: "M", Name: "foo"}).ArgCompromised[0] {
		t.Fatal("publishing the argument's contents must compromise the argument")
	}
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	// Only the pre-call x.link = y store is elidable; the post-call y.g
	// store must keep its barrier (y escaped through foo).
	if len(f) != 1 {
		t.Fatalf("want exactly the pre-call elision, got %v:\n%s", f, dis(p, m))
	}
	var stores []int
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpPutField {
			stores = append(stores, pc)
		}
	}
	if f[0] != stores[0] {
		t.Errorf("elision at pc %d, want the pre-call store at pc %d", f[0], stores[0])
	}
}

func TestSummaryDeepContentMutationCompromises(t *testing.T) {
	// Writing through the argument's contents (q.link.g) mutates an
	// object the caller may track by name: no finer invalidation exists,
	// so the argument is compromised.
	src := `
class C { C link; C g; }
class M {
    static void deep(C q) { q.link.g = new C(); }
    static void main() {
        C y = new C();
        C x = new C();
        x.link = y;
        M.deep(x);
        y.g = new C();
    }
}
`
	p, _ := analyzeI(t, src)
	sums, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sums.Of(p, bytecode.MethodRef{Class: "M", Name: "deep"}).ArgCompromised[0] {
		t.Fatal("mutation through the argument's contents must compromise it")
	}
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	for _, pc := range mustElisions(t, p, m) {
		// The y.g store is the last putfield; it must not be elided.
		if m.Code[pc].Op == bytecode.OpPutField && pc == lastPutfield(m) {
			t.Errorf("store into deep-mutated object elided at pc %d:\n%s", pc, dis(p, m))
		}
	}
}

func mustElisions(t *testing.T, p *bytecode.Program, m *bytecode.Method) []int {
	t.Helper()
	f, arr, _ := elisions(p, m)
	return append(f, arr...)
}

func lastPutfield(m *bytecode.Method) int {
	last := -1
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpPutField {
			last = pc
		}
	}
	return last
}

func TestSummaryBudgetDegradesOnlyTheComponent(t *testing.T) {
	// A 1-round budget cannot finish the cyclic pair (its first round
	// worsens rb), so the whole component degrades to the worst case —
	// but the unrelated read-only method keeps its precise summary, and
	// the degradation is deterministic (structural, cache-safe).
	src := `
class T { int v; T f; static T sink; }
class M {
    static int ra(T t, int n) { if (n <= 0) return 0; return M.rb(t, n - 1); }
    static int rb(T t, int n) { T.sink = t; if (n <= 0) return 0; return M.ra(t, n - 1); }
    static int ro(T t) { return t.v; }
    static void main() { print(M.ro(new T())); }
}
`
	// ro needs a caller to have a summary at all; the pair invokes itself.
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	opts := optsI()
	opts.MaxSummaryRoundsPerSCC = 1
	sums, err := ComputeSummariesParallel(p, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ra", "rb"} {
		s := sums.Of(p, bytecode.MethodRef{Class: "M", Name: name})
		if !s.ArgCompromised[0] || !s.ArgIntMutated[0] {
			t.Errorf("%s must degrade to the worst case under a 1-round budget: %+v", name, s)
		}
	}
	if sums.Of(p, bytecode.MethodRef{Class: "M", Name: "ro"}).ArgCompromised[0] {
		t.Error("budget degradation must not leak outside the cyclic component")
	}
	// Default budget converges and is strictly more precise: ra
	// publishes transitively, but ArgIntMutated stays false.
	full, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ra := full.Of(p, bytecode.MethodRef{Class: "M", Name: "ra"})
	if !ra.ArgCompromised[0] || ra.ArgIntMutated[0] {
		t.Errorf("converged ra summary = %+v, want compromised but not int-mutated", ra)
	}
}

func TestUnsoundTrustAllSummariesSkipsRerun(t *testing.T) {
	// ra is summarized before its cycle-mate rb within the round; rb
	// publishes the shared argument. Skipping the compromise re-run
	// leaves ra trusting rb's stale optimistic summary — the injected
	// bug the metamorphic campaign must catch dynamically.
	src := `
class T { int v; T f; static T sink; }
class M {
    static int ra(T t, int n) { if (n <= 0) return 0; return M.rb(t, n - 1); }
    static int rb(T t, int n) { T.sink = t; if (n <= 0) return 0; return M.ra(t, n - 1); }
    static void main() { }
}
`
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	sound, err := ComputeSummariesParallel(p, optsI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sound.Of(p, bytecode.MethodRef{Class: "M", Name: "ra"}).ArgCompromised[0] {
		t.Fatal("sound fixed point must compromise ra's argument transitively")
	}
	unsound := InjectFaults(optsI(), false, true)
	trusted, err := ComputeSummariesParallel(p, unsound, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trusted.Of(p, bytecode.MethodRef{Class: "M", Name: "ra"}).ArgCompromised[0] {
		t.Fatal("trust-all knob should have produced the unsound clean summary for ra " +
			"(the self-test relies on this exact wrongness)")
	}
	if !trusted.Of(p, bytecode.MethodRef{Class: "M", Name: "rb"}).ArgCompromised[0] {
		t.Error("rb publishes directly; even trust-all sees that")
	}
}
