package core_test

import (
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/core"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
)

// FuzzAnalyze feeds frontend-accepted programs through the barrier
// analysis under fuzzed option combinations. The contract is the
// recovery guarantee of AnalyzeMethod: a panic anywhere in the analysis
// is converted into a conservative degraded MethodReport, so no panic
// may ever escape AnalyzeProgram — for any valid program, any mode, any
// ablation, and any (tiny) budget.
func FuzzAnalyze(f *testing.F) {
	handwritten := []string{
		"class A { static void main() { print(1); } }",
		`class N { N next; }
class A { static void main() {
    N prev = null;
    for (int i = 0; i < 3; i = i + 1) { N n = new N(); n.next = prev; prev = n; }
    print(0);
} }`,
		`class A { static void main() {
    A[] a = new A[4];
    for (int i = 0; i < 4; i = i + 1) { a[i] = new A(); }
    print(0);
} }`,
		// A loop header at pc 0, whose entry joins the back edge with the
		// method entry (TestEntryBlockIsAJoin).
		`class O { O f; }
class A {
    static void g(O o, int n) { while (n > 0) { o.f = o; o = new O(); n = n - 1; } }
    static void main() { O a = new O(); a.f = a; A.g(a, 3); print(1); }
}`,
	}
	for _, src := range handwritten {
		f.Add(src, uint16(0))
	}
	// Campaign-idiom generator sources exercise the strided-init,
	// alloc-reuse, aliasing, and escape-store paths the properties in
	// internal/metatest stress.
	for i, src := range progen.Corpus(21000, 4, progen.CampaignConfig()) {
		f.Add(src, uint16(i*257))
	}
	modes := []core.Mode{core.ModeNone, core.ModeField, core.ModeFieldArray}
	f.Fuzz(func(t *testing.T, src string, cfg uint16) {
		if len(src) > 1<<12 {
			t.Skip()
		}
		ast, err := minijava.Parse("fuzz.mj", src)
		if err != nil {
			return // frontend rejection is FuzzParse's territory
		}
		checked, err := minijava.Check("fuzz.mj", ast)
		if err != nil {
			return
		}
		prog, err := codegen.Compile(checked)
		if err != nil {
			return
		}
		opts := core.Options{
			Mode:                  modes[int(cfg%3)],
			NullOrSame:            cfg&(1<<2) != 0,
			Rearrange:             cfg&(1<<3) != 0,
			SingleRefPerSite:      cfg&(1<<4) != 0,
			FlowInsensitiveEscape: cfg&(1<<5) != 0,
			NoStrideInference:     cfg&(1<<6) != 0,
			Interprocedural:       cfg&(1<<7) != 0,
		}
		// Starved budgets force the degradation paths mid-fixed-point.
		if cfg&(1<<8) != 0 {
			opts.MaxBlockVisits = 1 + int(cfg>>9)%4
		}
		if cfg&(1<<9) != 0 {
			opts.MaxStateSize = 1 + int(cfg>>10)%8
		}
		if cfg&(1<<10) != 0 {
			opts.MaxSummaryRoundsPerSCC = 1 + int(cfg>>11)%3
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic escaped the analysis recovery layer: %v\noptions: %+v\nsource:\n%s", r, opts, src)
			}
		}()
		rep, err := core.AnalyzeProgram(prog, opts)
		if err != nil {
			t.Fatalf("analysis error (must degrade, not fail): %v\noptions: %+v\nsource:\n%s", err, opts, src)
		}
		for _, mr := range rep.Methods {
			if mr.FieldElided > mr.FieldSites || mr.ArrayElided > mr.ArraySites {
				t.Fatalf("%s: elisions exceed sites (%d/%d field, %d/%d array)\noptions: %+v\nsource:\n%s",
					mr.Method.QualifiedName(), mr.FieldElided, mr.FieldSites,
					mr.ArrayElided, mr.ArraySites, opts, src)
			}
			if mr.Degraded != core.DegradeNone && (mr.FieldElided != 0 || mr.ArrayElided != 0 || mr.NullOrSame != 0) {
				t.Fatalf("%s: degraded (%s) but still elides barriers\noptions: %+v\nsource:\n%s",
					mr.Method.QualifiedName(), mr.Degraded, opts, src)
			}
		}
		// Summaries are a pure precision layer: with no starvation budgets
		// in play, every store site the intraprocedural analysis elides
		// must still be elided with summaries on. (Budgets break the
		// guarantee legitimately — summary consultation costs block visits
		// and state size the plain run does not pay.)
		if opts.Interprocedural && opts.MaxBlockVisits == 0 && opts.MaxStateSize == 0 &&
			opts.MaxSummaryRoundsPerSCC == 0 {
			plainProg, err := codegen.Compile(checked)
			if err != nil {
				t.Fatalf("recompile: %v", err)
			}
			plainOpts := opts
			plainOpts.Interprocedural = false
			if _, err := core.AnalyzeProgram(plainProg, plainOpts); err != nil {
				t.Fatalf("plain analysis error: %v", err)
			}
			plain, interproc := plainProg.Verdicts(), prog.Verdicts()
			for n, m := range prog.Methods() {
				pn := plainProg.Symbols().MethodNum(m.Ref())
				for pc := range m.Code {
					if plain.At(pn, pc) != bytecode.VerdictNone && interproc.At(n, pc) == bytecode.VerdictNone {
						t.Fatalf("%s pc %d: intraprocedural run elides but interprocedural run does not\noptions: %+v\nsource:\n%s",
							m.QualifiedName(), pc, opts, src)
					}
				}
			}
		}
	})
}
