package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/progen"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// sweepPrograms are the differential-sweep inputs: handwritten programs
// that exercise the interprocedural summary machinery (fresh returns,
// constructor pre-null facts, arg-field publication, mutual recursion)
// plus a slice of campaign-generator seeds for breadth.
func sweepPrograms() map[string]string {
	progs := map[string]string{
		// A callee that publishes a field of its argument: the summary
		// must compromise the published object so the caller keeps the
		// barrier on the post-call store (the PR's core soundness
		// regression, here end-to-end through the pipeline).
		"arg-field-publish": `
class C { C link; C g; }
class G { static C gs; }
class Main {
  static int foo(C q) { G.gs = q.link; return 0; }
  static void main() {
    C y = new C();
    C x = new C();
    x.link = y;
    int k = Main.foo(x);
    y.g = new C();
    print(k);
  }
}`,
		// Fresh factory returns and a read-only helper: the cases the
		// summaries are supposed to win at inline limit 0.
		"fresh-returns": `
class T { int v; T f; }
class Main {
  static T mk(int v) { T t = new T(); t.v = v; return t; }
  static T chain() { return Main.mk(7); }
  static int ro(T t) { return t.v; }
  static void main() {
    T a = Main.mk(1);
    a.f = Main.chain();
    print(Main.ro(a) + a.f.v);
  }
}`,
		// Mutual recursion with publication inside the cycle: the
		// fixed-point compromise must survive the cyclic SCC schedule.
		"mutual-recursion": `
class C { int a; C link; }
class G { static C g0; static int acc; }
class Main {
  static int ra(int n, C q) { if (n <= 0) return q.a; return Main.rb(n - 1, q); }
  static int rb(int n, C q) { G.g0 = q; if (n <= 0) return 0; return Main.ra(n - 1, q) + 1; }
  static void main() {
    C c = new C();
    G.acc = Main.ra(4, c);
    c.link = new C();
    print(G.acc + c.a);
  }
}`,
	}
	for _, seed := range []int64{3, 11, 27} {
		progs[string('a'+rune(seed%26))+"-gen"] = progen.Generate(seed, progen.CampaignConfig())
	}
	return progs
}

// elidedSites collects the set of (method, pc) store sites any elision
// flag removed the barrier from.
func elidedSites(p *bytecode.Program) map[[2]interface{}]bool {
	out := map[[2]interface{}]bool{}
	vt := p.Verdicts()
	for n, m := range p.Methods() {
		for pc := range m.Code {
			if vt.At(n, pc) != bytecode.VerdictNone {
				out[[2]interface{}{m.QualifiedName(), pc}] = true
			}
		}
	}
	return out
}

// TestInterprocDifferentialSweep is the PR's acceptance sweep:
// interprocedural summaries on vs off, across the paper's inline-limit
// ladder and every snapshot-sound barrier flavor with the runtime
// elision oracle armed. Summaries must be observationally invisible
// (output, steps, allocations, GC cycles), oracle-clean, and — at every
// limit — elide a superset of the intraprocedural sites.
func TestInterprocDifferentialSweep(t *testing.T) {
	limits := []int{0, 25, 50, 100, 200}
	if testing.Short() {
		limits = []int{0, 100}
	}
	flavors := []satb.BarrierMode{
		satb.ModeConditional, satb.ModeYuasa, satb.ModeDijkstra, satb.ModeHybrid,
	}
	for name, src := range sweepPrograms() {
		for _, limit := range limits {
			builds := map[bool]*Build{}
			for _, interproc := range []bool{false, true} {
				b, err := Compile(name, src, Options{
					InlineLimit: limit,
					Analysis: core.Options{
						Mode:            core.ModeFieldArray,
						Interprocedural: interproc,
					},
					NoCache: true,
				})
				if err != nil {
					t.Fatalf("%s limit %d interproc %v: %v", name, limit, interproc, err)
				}
				builds[interproc] = b
			}

			// Elision superset at equal limits: everything the plain
			// analysis removes, the summary-equipped analysis removes too.
			off := elidedSites(builds[false].Program)
			on := elidedSites(builds[true].Program)
			for site := range off {
				if !on[site] {
					t.Errorf("%s limit %d: %v elided intraprocedurally but not with summaries",
						name, limit, site)
				}
			}

			for _, mode := range flavors {
				cfg := vm.Config{
					Barrier:            mode,
					GC:                 vm.GCSATB,
					TriggerEveryAllocs: 64,
					CheckInvariant:     true,
					CheckElisions:      true,
					MaxSteps:           20_000_000,
				}
				onRes, err := builds[true].Run(cfg)
				if err != nil {
					t.Fatalf("%s limit %d %v interproc: %v", name, limit, mode, err)
				}
				offRes, err := builds[false].Run(cfg)
				if err != nil {
					t.Fatalf("%s limit %d %v plain: %v", name, limit, mode, err)
				}
				if !reflect.DeepEqual(onRes.Output, offRes.Output) {
					t.Fatalf("%s limit %d %v: summaries changed output %v -> %v",
						name, limit, mode, offRes.Output, onRes.Output)
				}
				if onRes.Steps != offRes.Steps || onRes.Allocated != offRes.Allocated ||
					onRes.Cycles != offRes.Cycles {
					t.Fatalf("%s limit %d %v: summaries changed execution: steps %d/%d allocated %d/%d cycles %d/%d",
						name, limit, mode, onRes.Steps, offRes.Steps,
						onRes.Allocated, offRes.Allocated, onRes.Cycles, offRes.Cycles)
				}
				if s := onRes.Counters.Summarize(); len(s.UnsoundSites) > 0 {
					t.Fatalf("%s limit %d %v: unsound interprocedural elisions %v",
						name, limit, mode, s.UnsoundSites)
				}
			}
		}
	}
}

// TestInterprocWinsAtInlineLimitZero pins the PR's reason to exist: with
// inlining off, the summary-equipped analysis strictly out-elides the
// intraprocedural one on the fresh-returns program.
func TestInterprocWinsAtInlineLimitZero(t *testing.T) {
	src := sweepPrograms()["fresh-returns"]
	counts := map[bool]int{}
	for _, interproc := range []bool{false, true} {
		b, err := Compile("win", src, Options{
			InlineLimit: 0,
			Analysis:    core.Options{Mode: core.ModeFieldArray, Interprocedural: interproc},
			NoCache:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[interproc] = len(elidedSites(b.Program))
	}
	if counts[true] <= counts[false] {
		t.Fatalf("summaries must strictly win at limit 0: interproc %d vs plain %d",
			counts[true], counts[false])
	}
}

// TestConcurrentInterprocCompilesMatchSequential is the race check for
// the condensed-callgraph summary scheduler: many goroutines compiling
// the same interprocedural build through the shared cache must all see
// the exact elision decisions of an uncached sequential reference
// compile. Run under -race this also proves the SCC worker pool and the
// cache's singleflight layer are data-race free.
func TestConcurrentInterprocCompilesMatchSequential(t *testing.T) {
	src := sweepPrograms()["mutual-recursion"]
	opts := Options{
		InlineLimit: 0,
		Analysis:    core.Options{Mode: core.ModeFieldArray, Interprocedural: true},
	}
	refOpts := opts
	refOpts.NoCache = true
	refOpts.Workers = 1
	ref, err := Compile("ref", src, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := elidedSites(ref.Program)

	cacheOpts := opts
	cacheOpts.Cache = NewCache(8)
	cacheOpts.Workers = 8
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	builds := make([]*Build, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			builds[g], errs[g] = Compile("ref", src, cacheOpts)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got := elidedSites(builds[g].Program); !reflect.DeepEqual(got, want) {
			t.Fatalf("goroutine %d: elisions diverge from sequential reference:\ngot  %v\nwant %v",
				g, got, want)
		}
	}
}

// TestCacheKeyCoversSummaryOptions: two compilations differing only in a
// summary-layer option must never share a cache entry.
func TestCacheKeyCoversSummaryOptions(t *testing.T) {
	base := Options{InlineLimit: 0, Analysis: core.Options{Mode: core.ModeFieldArray}}
	variants := []Options{
		{InlineLimit: 0, Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: true}},
		{InlineLimit: 0, Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: true, MaxSummaryRoundsPerSCC: 1}},
	}
	src := "class Main { static void main() { print(1); } }"
	seen := map[cacheKey]Options{base.key("k", src): base}
	for _, v := range variants {
		k := v.key("k", src)
		if prev, dup := seen[k]; dup {
			t.Fatalf("cache key collision between %+v and %+v", prev.Analysis, v.Analysis)
		}
		seen[k] = v
	}
}
