package core

import (
	"testing"

	"satbelim/internal/bytecode"
)

func optsI() Options { return Options{Mode: ModeFieldArray, Interprocedural: true} }

// analyzeI compiles at inline limit 0 (calls preserved) with summaries.
func analyzeI(t *testing.T, src string) (*bytecode.Program, *ProgramReport) {
	t.Helper()
	return analyzeSrc(t, src, 0, optsI())
}

func TestSummaryReadOnlyCalleeKeepsArgLocal(t *testing.T) {
	// weigh only reads its argument: the post-call store stays elidable
	// even though the call is not inlined.
	src := `
class T { int v; T f; }
class M {
    static int weigh(T t) { return t.v * 2; }
    static void main() {
        T t = new T();
        print(M.weigh(t));
        t.f = new T();   // t survived the call thread-local
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("read-only callee should keep the elision, got %v:\n%s", f, dis(p, m))
	}
	// Without summaries, the call compromises t.
	p0, _ := analyzeSrc(t, src, 0, optsA())
	m0 := p0.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f0, _, _ := elisions(p0, m0); len(f0) != 0 {
		t.Errorf("without summaries the store must keep its barrier, got %v", f0)
	}
}

func TestSummaryIntMutationTaintsIntsNotRefs(t *testing.T) {
	// poke writes only an int field: the argument stays thread-local, so
	// reference-field pre-null facts survive the call (the store below
	// is still sound to elide) — but integer facts about it must be
	// forgotten.
	src := `
class T { int v; T f; }
class M {
    static void poke(T t) { t.v = 9; }
    static void main() {
        T t = new T();
        M.poke(t);
        t.f = new T();   // ref field untouched by poke: elidable
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 1 {
		t.Errorf("int-only mutation must not block ref-field elision, got %v:\n%s", f, dis(p, m))
	}
}

func TestSummaryIntMutationBlocksStaleIndexProof(t *testing.T) {
	// The callee rewrites the int field the caller uses as a fill index:
	// the caller's "idx is still 0" fact would be stale, so the array
	// store must keep its barrier.
	src := `
class T { int idx; }
class M {
    static void bump(T t) { t.idx = t.idx + 2; }
    static void fillOne(T t, T[] a) { }
    static void main() {
        T t = new T();          // t.idx = 0
        T[] a = new T[4];
        M.bump(t);              // idx now 2, but only the summary knows
        a[t.idx] = t;           // must NOT be proven in-null-range via idx=0
        a[0] = t;               // index 0 is genuinely the low end: elidable
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	_, arr, _ := elisions(p, m)
	// Only the literal a[0] store may be elided; the a[t.idx] store reads
	// a tainted int and must stay.
	var stores []int
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpAAStore {
			stores = append(stores, pc)
		}
	}
	if len(stores) != 2 {
		t.Fatalf("expected 2 aastores, got %v", stores)
	}
	for _, pc := range arr {
		if pc == stores[0] {
			t.Errorf("store with tainted index must keep its barrier:\n%s", dis(p, m))
		}
	}
}

func TestSummaryPublishingCalleeCompromisesArg(t *testing.T) {
	src := `
class T { T f; static T sink; }
class M {
    static void publish(T t) { T.sink = t; }
    static void main() {
        T t = new T();
        M.publish(t);
        t.f = new T();   // t escaped through the static
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 0 {
		t.Errorf("publishing callee must compromise the argument, got %v", f)
	}
}

func TestSummaryReturnedArgCompromised(t *testing.T) {
	// Returning the argument makes it reachable from the (GlobalRef-
	// summarized) result; callers must treat it as escaped.
	src := `
class T { T f; }
class M {
    static T id(T t) { return t; }
    static void main() {
        T t = new T();
        T u = M.id(t);
        t.f = u;   // t may be reachable via the call's result
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 0 {
		t.Errorf("returned argument must be compromised, got %v", f)
	}
}

func TestSummaryStoreIntoOtherArgCompromisesStored(t *testing.T) {
	// link stores b into a's field: b becomes reachable from a through a
	// path the caller cannot track, so b is compromised. a itself stays
	// thread-local — the callee's write is a targeted dirty field (T.f),
	// so the caller keeps its pre-null fact about the untouched a.g and
	// that store stays elidable, while losing the fact about a.f.
	src := `
class T { T f; T g; }
class M {
    static void link(T a, T b) { a.f = b; }
    static void main() {
        T a = new T();
        T b = new T();
        M.link(a, b);
        a.g = new T();  // g untouched by callee: still elidable
        a.f = new T();  // f dirtied by callee: must keep its barrier
        b.g = new T();  // b reachable via a: compromised
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Fatalf("exactly the a.g store should be elided, got %v:\n%s", f, dis(p, m))
	}
	// The single elision must be the first post-call putfield (a.g).
	var stores []int
	for pc := range m.Code {
		if m.Code[pc].Op == bytecode.OpPutField {
			stores = append(stores, pc)
		}
	}
	if len(stores) != 3 {
		t.Fatalf("expected 3 putfields, got %v", stores)
	}
	if f[0] != stores[0] {
		t.Errorf("elision at pc %d, want the a.g store at pc %d:\n%s", f[0], stores[0], dis(p, m))
	}
}

func TestSummaryTransitiveThroughHelperChain(t *testing.T) {
	src := `
class T { int v; T f; static T sink; }
class M {
    static int readOnly(T t) { return t.v; }
    static int viaHelper(T t) { return M.readOnly(t) + 1; }
    static void leakDeep(T t) { M.publish(t); }
    static void publish(T t) { T.sink = t; }
    static void main() {
        T ok = new T();
        print(M.viaHelper(ok));
        ok.f = new T();       // stays elidable: chain is read-only

        T bad = new T();
        M.leakDeep(bad);
        bad.f = new T();      // compromised transitively
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	f, _, _ := elisions(p, m)
	if len(f) != 1 {
		t.Errorf("exactly the read-only-chain store should be elided, got %v:\n%s", f, dis(p, m))
	}
}

func TestSummaryRecursiveCalleeConverges(t *testing.T) {
	src := `
class T { int v; T f; }
class M {
    static int depth(T t, int n) { if (n == 0) return t.v; return M.depth(t, n - 1); }
    static void main() {
        T t = new T();
        print(M.depth(t, 3));
        t.f = new T();  // recursion is read-only on t
    }
}
`
	p, _ := analyzeI(t, src)
	m := p.Method(bytecode.MethodRef{Class: "M", Name: "main"})
	if f, _, _ := elisions(p, m); len(f) != 1 {
		t.Errorf("read-only recursion should keep the elision, got %v", f)
	}
}

func TestComputeSummariesDirect(t *testing.T) {
	src := `
class T { int v; T f; static T sink; }
class M {
    static int ro(T t) { return t.v; }
    static void mut(T t) { t.f = null; }
    static void pub(T t) { T.sink = t; }
    static void main() { T t = new T(); print(M.ro(t)); M.mut(t); M.pub(t); }
}
`
	// Summaries exist for invoked methods only, so main calls all three.
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	sums, err := ComputeSummariesParallel(p, Options{Mode: ModeFieldArray}, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want bool) {
		t.Helper()
		s := sums.Of(p, bytecode.MethodRef{Class: "M", Name: name})
		if s == nil || len(s.ArgCompromised) != 1 {
			t.Fatalf("%s summary = %+v", name, s)
		}
		if s.ArgCompromised[0] != want {
			t.Errorf("%s arg compromised = %v, want %v", name, s.ArgCompromised[0], want)
		}
	}
	check("ro", false)
	// mut writes only its own argument's field: no compromise, but the
	// written field leaves the pre-null set.
	check("mut", false)
	check("pub", true)
	mut := sums.Of(p, bytecode.MethodRef{Class: "M", Name: "mut"})
	if mut.PreNullNamed(p, 0, "T.f") {
		t.Error("written field T.f must leave the pre-null set")
	}
	ro := sums.Of(p, bytecode.MethodRef{Class: "M", Name: "ro"})
	if !ro.PreNullNamed(p, 0, "T.f") {
		t.Error("untouched field T.f must stay pre-null for the read-only callee")
	}
}
