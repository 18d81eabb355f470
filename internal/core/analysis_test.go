package core

import (
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/verifier"
)

// analyzeSrc compiles MiniJava source, inlines at the given limit,
// verifies, analyzes, and returns the program and report.
func analyzeSrc(t *testing.T, src string, inlineLimit int, opts Options) (*bytecode.Program, *ProgramReport) {
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
	p = inline.Apply(p, inline.Options{Limit: inlineLimit}).Program
	if err := verifier.VerifyProgram(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rep, err := AnalyzeProgram(p, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p, rep
}

// verdictsOf returns the verdict of every pc of m, one of p's methods, in
// p's verdict table.
func verdictsOf(p *bytecode.Program, m *bytecode.Method) []bytecode.Verdict {
	n := p.Symbols().MethodNum(m.Ref())
	if n < 0 || p.Methods()[n] != m {
		panic(m.QualifiedName() + " is not a method of the program")
	}
	if row := p.Verdicts().Of(n); row != nil {
		return row
	}
	return make([]bytecode.Verdict, len(m.Code))
}

// dis is m's listing annotated with its verdicts in p.
func dis(p *bytecode.Program, m *bytecode.Method) string {
	return bytecode.Disassemble(m, verdictsOf(p, m))
}

// elisions lists the pcs of elided stores in a method of p, split by
// opcode.
func elisions(p *bytecode.Program, m *bytecode.Method) (fields, arrays, nos []int) {
	for pc, v := range verdictsOf(p, m) {
		op := m.Code[pc].Op
		switch {
		case v == bytecode.VerdictPreNull && op == bytecode.OpPutField:
			fields = append(fields, pc)
		case v == bytecode.VerdictPreNull && op == bytecode.OpAAStore:
			arrays = append(arrays, pc)
		case v == bytecode.VerdictNullOrSame:
			nos = append(nos, pc)
		}
	}
	return
}

func optsA() Options { return Options{Mode: ModeFieldArray} }

func TestCtorInitializingStoreElided(t *testing.T) {
	// Inside a constructor, this is unique and thread-local with null
	// fields (§2.3), so the initializing store needs no barrier — even
	// without inlining.
	src := `
class T { T next; T(T n) { next = n; } }
class M { static void main() { T t = new T(null); } }
`
	p, _ := analyzeSrc(t, src, 0, optsA())
	ctor := p.Method(bytecode.MethodRef{Class: "T", Name: "<init>"})
	f, _, _ := elisions(p, ctor)
	if len(f) != 1 {
		t.Errorf("constructor store should be elided:\n%s", dis(p, ctor))
	}
}

func TestNonCtorArgStoreNotElided(t *testing.T) {
	// A plain method's argument is non-thread-local; its fields are
	// unknown (GlobalRef lookup), so no elision.
	src := `
class T { T next; void set(T n) { next = n; } }
class M { static void main() { T t = new T(); t.set(null); } }
`
	p, _ := analyzeSrc(t, src, 0, optsA())
	set := p.Method(bytecode.MethodRef{Class: "T", Name: "set"})
	f, _, _ := elisions(p, set)
	if len(f) != 0 {
		t.Errorf("store through an escaped argument must keep its barrier:\n%s", dis(p, set))
	}
}

func TestInlinedCtorExposesElision(t *testing.T) {
	// Without inlining, the constructor call makes the fresh object
	// escape; with it, the caller sees the pre-null store (§2.4).
	src := `
class T { T next; int v; T(int x) { v = x; } }
class M {
    static void main() {
        T t = new T(1);
        t.next = new T(2);
    }
}
`
	// No inlining: t escapes into the ctor call; t.next store keeps its
	// barrier.
	p0, _ := analyzeSrc(t, src, 0, optsA())
	m0 := p0.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f0, _, _ := elisions(p0, m0)
	if len(f0) != 0 {
		t.Errorf("without inlining, no main elisions expected:\n%s", dis(p0, m0))
	}
	// With inlining: both the inlined v-store and the next-store are
	// pre-null on thread-local objects.
	p1, _ := analyzeSrc(t, src, 100, optsA())
	m1 := p1.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f1, _, _ := elisions(p1, m1)
	if len(f1) != 1 { // only t.next is a ref store; v is an int field
		t.Errorf("with inlining, the t.next store should be elided (got %v):\n%s", f1, dis(p1, m1))
	}
}

func TestSecondStoreToFieldNotElided(t *testing.T) {
	src := `
class T { T next; }
class M {
    static void main() {
        T t = new T();
        t.next = new T(); // pre-null: elidable
        t.next = new T(); // overwrites a non-null value: barrier stays
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("exactly the first store should be elided, got %v:\n%s", f, dis(p, m))
	}
	// The elided one must be the earlier pc.
	var stores []int
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpPutField {
			stores = append(stores, pc)
		}
	}
	if len(stores) == 2 && len(f) == 1 && f[0] != stores[0] {
		t.Errorf("wrong store elided: %v of %v", f, stores)
	}
}

func TestPaperLoopExampleTwoNamesPerSite(t *testing.T) {
	// The §2.4 motivating example: in a loop, W1 stores to the most
	// recent allocation (strong-updatable, elidable); W2 stores to an
	// object that may be from a previous iteration whose field was
	// already written.
	src := `
class T { T f; }
class M {
    static void run(boolean p1, boolean p2) {
        T x = new T();
        while (p1) {
            x = new T();
            if (p2) {
                x.f = new T();  // W1: first write to the fresh object
            }
            x.f = new T();      // W2: may overwrite W1's value
            p1 = !p1;
        }
    }
}
`
	p, _ := analyzeSrc(t, src, 0, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "run"})
	f, _, _ := elisions(p, m)
	// Find the two x.f stores in pc order; W1 must be elided, W2 not.
	var stores []int
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpPutField && m.Operand(pc).Name == "f" {
			stores = append(stores, pc)
		}
	}
	if len(stores) != 2 {
		t.Fatalf("expected 2 f-stores, found %v", stores)
	}
	if len(f) != 1 || f[0] != stores[0] {
		t.Errorf("W1 (pc %d) should be the only elision, got %v:\n%s", stores[0], f, dis(p, m))
	}

	// Ablation: with a single summary node per site, strong update is
	// impossible and W1 keeps its barrier.
	pa, _ := analyzeSrc(t, src, 0, Options{Mode: ModeFieldArray, SingleRefPerSite: true})
	ma := pa.Method(bytecode.MethodRef{Class: "M", Name: "run"})
	fa, _, _ := elisions(pa, ma)
	if len(fa) != 0 {
		t.Errorf("single-summary ablation should lose the W1 elision, got %v", fa)
	}
}

func TestFlowSensitiveEscape(t *testing.T) {
	// The store happens before the object escapes: elidable with the
	// flow-sensitive NL, lost under the ever-escapes ablation (§2).
	src := `
class T { T next; static T head; }
class M {
    static void main() {
        T t = new T();
        t.next = new T(); // before escape: elidable
        T.head = t;       // t escapes here
        t.next = null;    // after escape: barrier stays
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("exactly the pre-escape store should be elided, got %v:\n%s", f, dis(p, m))
	}

	pa, _ := analyzeSrc(t, src, 100, Options{Mode: ModeFieldArray, FlowInsensitiveEscape: true})
	ma := pa.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	fa, _, _ := elisions(pa, ma)
	if len(fa) != 0 {
		t.Errorf("flow-insensitive ablation should lose the elision, got %v", fa)
	}
}

func TestEscapeThroughCallArgument(t *testing.T) {
	src := `
class T { T next; }
class Sink { static void consume(T t) { } }
class M {
    static void main() {
        T t = new T();
        Sink.consume(t);
        t.next = new T(); // t escaped into the call
    }
}
`
	p, _ := analyzeSrc(t, src, 0, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 0 {
		t.Errorf("store after call-escape must keep its barrier, got %v", f)
	}
}

func TestEscapeTransitiveReachability(t *testing.T) {
	// Storing a into an escaped container escapes a, and everything a
	// reaches (AllNonTL's transitive closure).
	src := `
class T { T next; static T head; }
class M {
    static void main() {
        T a = new T();
        T b = new T();
        a.next = b;       // elidable (both local)
        T.head = a;       // a escapes, and with it b
        b.next = new T(); // must keep barrier: b is reachable by others
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("only a.next=b should be elided, got %v:\n%s", f, dis(p, m))
	}
}

func TestSpawnEscapesReceiver(t *testing.T) {
	src := `
class W { W other; void run() { } }
class M {
    static void main() {
        W w = new W();
        spawn w.run();
        w.other = new W(); // w is shared with the spawned thread
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 0 {
		t.Errorf("store to spawned receiver must keep its barrier, got %v", f)
	}
}

func TestPaperExpandArrayExample(t *testing.T) {
	// §3.1: every new_ta[i] store in the copy loop is initializing.
	src := `
class T { int v; }
class U {
    static T[] expand(T[] ta) {
        T[] new_ta = new T[ta.length * 2];
        for (int i = 0; i < ta.length; i = i + 1)
            new_ta[i] = ta[i];
        return new_ta;
    }
}
`
	p, _ := analyzeSrc(t, src, 0, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "expand"})
	_, arr, _ := elisions(p, m)
	if len(arr) != 1 {
		t.Errorf("the loop's aastore should be elided, got %v:\n%s", arr, dis(p, m))
	}

	// Mode F must not elide array stores.
	pf, _ := analyzeSrc(t, src, 0, Options{Mode: ModeField})
	mf := pf.Method(bytecode.MethodRef{Class: "U", Name: "expand"})
	_, arrF, _ := elisions(pf, mf)
	if len(arrF) != 0 {
		t.Errorf("mode F should not elide array stores, got %v", arrF)
	}

	// Stride-inference ablation collapses the loop invariant.
	pn, _ := analyzeSrc(t, src, 0, Options{Mode: ModeFieldArray, NoStrideInference: true})
	mn := pn.Method(bytecode.MethodRef{Class: "U", Name: "expand"})
	_, arrN, _ := elisions(pn, mn)
	if len(arrN) != 0 {
		t.Errorf("no-stride ablation should lose the elision, got %v", arrN)
	}
}

func TestArrayFillDownward(t *testing.T) {
	// Filling from the high end exercises the [..hi] half-open range.
	src := `
class T { int v; }
class U {
    static T[] fill(int n) {
        T[] a = new T[n];
        for (int i = n - 1; i >= 0; i = i - 1)
            a[i] = new T();
        return a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "fill"})
	_, arr, _ := elisions(p, m)
	if len(arr) != 1 {
		t.Errorf("downward fill should be elided, got %v:\n%s", arr, dis(p, m))
	}
}

func TestArrayOutOfOrderStoreNotElided(t *testing.T) {
	src := `
class T { int v; }
class U {
    static T[] sparse(int n) {
        T[] a = new T[n];
        a[0] = new T(); // elidable: low end
        a[2] = new T(); // skips index 1: range collapses
        a[1] = new T(); // not provable anymore
        return a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "sparse"})
	_, arr, _ := elisions(p, m)
	if len(arr) != 1 {
		t.Errorf("only a[0] should be elided, got %v:\n%s", arr, dis(p, m))
	}
}

func TestArraySwapIdiomNotElided(t *testing.T) {
	// The db benchmark's dominant pattern (§4.3): a swap is never
	// pre-null.
	src := `
class T { int v; }
class U {
    static void swap(T[] a, int i, int j) {
        T tmp = a[i];
        a[i] = a[j];
        a[j] = tmp;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "swap"})
	_, arr, _ := elisions(p, m)
	if len(arr) != 0 {
		t.Errorf("swap stores must keep barriers, got %v", arr)
	}
}

func TestEscapedArrayStoreNotElided(t *testing.T) {
	src := `
class T { int v; }
class U {
    static T[] shared;
    static void main() {
        T[] a = new T[4];
        shared = a;
        for (int i = 0; i < 4; i = i + 1)
            a[i] = new T(); // a escaped: no elision
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "main"})
	_, arr, _ := elisions(p, m)
	if len(arr) != 0 {
		t.Errorf("stores into an escaped array must keep barriers, got %v", arr)
	}
}

func TestSigmaTracksStoredValues(t *testing.T) {
	// After t.f = u, reading t.f yields u's refs; storing that into a
	// fresh object's field is still the fresh object's first write.
	src := `
class T { T f; }
class M {
    static void main() {
        T u = new T();
        T t = new T();
        t.f = u;        // elidable
        T v = t.f;      // v = {u}
        T w = new T();
        w.f = v;        // elidable: w fresh, first write
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 2 {
		t.Errorf("both stores should be elided, got %v:\n%s", f, dis(p, m))
	}
}

func TestModeNoneClearsFlags(t *testing.T) {
	src := `
class T { T next; T(T n) { next = n; } }
`
	p, rep := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	m := p.Method(bytecode.MethodRef{Class: "T", Name: "<init>"})
	f, a, n := elisions(p, m)
	if len(f)+len(a)+len(n) != 0 {
		t.Error("mode B must not elide anything")
	}
	fs, _, fe, ae, _ := func() (int, int, int, int, int) { return rep.Totals() }()
	if fs != 1 || fe != 0 || ae != 0 {
		t.Errorf("totals: sites=%d fieldElided=%d arrayElided=%d", fs, fe, ae)
	}
}

func TestNullOrSameRecopyElided(t *testing.T) {
	// x.f = x.f rewrites the value already present (§4.3): no SATB log
	// needed whether or not it is null.
	src := `
class T { T f; T g; }
class M {
    static T roundtrip(T x) {
        T t = new T();
        t.f = x;     // pre-null (elided normally)
        t.f = t.f;   // null-or-same
        t.g = t.f;   // NOT null-or-same for g (g is null: actually pre-null? g never written: pre-null!)
        return t;
    }
}
`
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeFieldArray, NullOrSame: true})
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "roundtrip"})
	f, _, nos := elisions(p, m)
	// t.f = x elided (pre-null); t.g = t.f elided (pre-null, g untouched);
	// t.f = t.f is null-or-same.
	if len(f) != 2 {
		t.Errorf("pre-null elisions = %v, want 2:\n%s", f, dis(p, m))
	}
	if len(nos) != 1 {
		t.Errorf("null-or-same elisions = %v, want 1:\n%s", nos, dis(p, m))
	}
}

func TestNullOrSameKilledByInterveningStore(t *testing.T) {
	src := `
class T { T f; }
class M {
    static void run(T x, T y) {
        T t = new T();
        t.f = x;      // pre-null
        T saved = t.f;
        t.f = y;      // overwrites x: barrier stays
        t.f = saved;  // saved == old f? No: f is now y. Barrier stays.
    }
}
`
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeFieldArray, NullOrSame: true})
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "run"})
	f, _, nos := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("only the first store is pre-null, got %v", f)
	}
	if len(nos) != 0 {
		t.Errorf("stale saved value must not count as null-or-same, got %v", nos)
	}
}

func TestNullOrSameKilledByCall(t *testing.T) {
	src := `
class T { T f; static void touch(T t) { t.f = null; } }
class M {
    static void run(T x) {
        T t = new T();
        t.f = x;
        T saved = t.f;
        T.touch(t);
        t.f = saved;  // callee may have changed f: barrier stays
    }
}
`
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeFieldArray, NullOrSame: true})
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "run"})
	_, _, nos := elisions(p, m)
	if len(nos) != 0 {
		t.Errorf("call must kill null-or-same sources, got %v", nos)
	}
}

func TestAnalysisReportCounts(t *testing.T) {
	src := `
class T { T a; T b; int k; }
class M {
    static void main() {
        T t = new T();
        t.a = new T();
        t.b = new T();
        t.k = 3;
        T[] arr = new T[2];
        arr[0] = t;
        arr[1] = t;
    }
}
`
	_, rep := analyzeSrc(t, src, 100, optsA())
	fs, as, fe, ae, _ := rep.Totals()
	// Ref field sites: t.a, t.b plus none from ctors (no ctor). t.k is
	// an int store, not a site.
	if fs != 2 || as != 2 {
		t.Errorf("sites: field=%d array=%d, want 2/2", fs, as)
	}
	if fe != 2 {
		t.Errorf("field elided = %d, want 2", fe)
	}
	if ae != 2 {
		t.Errorf("array elided = %d, want 2 (in-order init)", ae)
	}
}

func TestAnalysisConvergesOnNestedLoops(t *testing.T) {
	src := `
class T { int v; }
class U {
    static T[][] grid(int n) {
        T[][] g = new T[n][];
        for (int i = 0; i < n; i = i + 1) {
            g[i] = new T[n];
            for (int j = 0; j < n; j = j + 1) {
                g[i][j] = new T();
            }
        }
        return g;
    }
}
`
	_, rep := analyzeSrc(t, src, 100, optsA())
	for _, mr := range rep.Methods {
		if !mr.Converged {
			t.Errorf("%s did not converge (%d visits)", mr.Method.QualifiedName(), mr.BlockVisits)
		}
	}
}

func TestGetFieldOfEscapedYieldsGlobal(t *testing.T) {
	// Reading a field of an escaped object yields GlobalRef; storing
	// into ITS field cannot be elided.
	src := `
class T { T next; static T head; }
class M {
    static void main() {
        T g = T.head;
        g.next = new T();
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 0 {
		t.Errorf("store into global object must keep barrier, got %v", f)
	}
}

func TestConditionalAllocationMergesRefsets(t *testing.T) {
	// x may be either allocation; both are local with null fields, so
	// the store is still elidable (weak update across the set).
	src := `
class T { T f; }
class M {
    static void run(boolean p) {
        T x = null;
        if (p) { x = new T(); } else { x = new T(); }
        x.f = new T(); // both candidates are fresh and null-fielded
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "run"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("merged-refset store should be elided, got %v:\n%s", f, dis(p, m))
	}
}
