package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/core"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
)

// FuzzAnalyze feeds frontend-accepted programs through the barrier
// analysis under fuzzed option combinations. Two contracts hold for any
// valid program, any mode, any ablation, and any (tiny) budget:
//
//   - Recovery: a panic anywhere in the analysis is converted into a
//     conservative degraded MethodReport, so no panic may ever escape
//     AnalyzeProgram. The recovery layer is a safety net, not a licence: a
//     method degraded by a panic fails the fuzz too.
//   - Soundness: the analyzed program runs on the fused engine under SATB
//     marking started at every allocation, with the runtime elision oracle
//     and the snapshot invariant checked, and no elided barrier may be
//     contradicted. A program fault or the step bound ends the run without
//     failing it: the property is about the verdicts, not the program.
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
		// method entry (TestEntryBlockIsAJoin). This form counts n down,
		// so taking the back edge's state alone chases n to the visit
		// budget and degrades instead of eliding; entryLoopSrc's loop
		// bound is a static, and the same bug elides o.f = o.
		`class O { O f; }
class A {
    static void g(O o, int n) { while (n > 0) { o.f = o; o = new O(); n = n - 1; } }
    static void main() { O a = new O(); a.f = a; A.g(a, 3); print(1); }
}`,
		entryLoopSrc,
	}
	// cfg 1 is mode F and cfg 2 mode A, with no ablation or budget: cfg 0
	// would select mode B, which runs no analysis.
	for _, src := range handwritten {
		f.Add(src, uint16(1))
		f.Add(src, uint16(2))
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
			if mr.Degraded == core.DegradePanic {
				t.Fatalf("%s: the analysis panicked: %s\noptions: %+v\nsource:\n%s",
					mr.Method.QualifiedName(), mr.DegradeDetail, opts, src)
			}
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
		if err := runChecked(prog); err != nil {
			t.Fatalf("%v\noptions: %+v\nsource:\n%s", err, opts, src)
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

// runChecked runs an analyzed program on the fused engine under SATB
// marking that starts at every allocation, with the runtime elision oracle
// and the snapshot invariant armed, and returns what contradicts its
// verdicts: a *vm.SoundnessViolation or a snapshot-invariant failure (the
// VM panics with the latter). Any other run error — a program fault, the
// step bound — is not the analysis's and returns nil.
func runChecked(prog *bytecode.Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	_, runErr := vm.New(prog, vm.Config{Engine: vm.EngineFused, Barrier: satb.ModeConditional, GC: vm.GCSATB,
		TriggerEveryAllocs: 1, CheckElisions: true, CheckInvariant: true, MaxSteps: 20_000}).Run()
	if sv := (*vm.SoundnessViolation)(nil); errors.As(runErr, &sv) {
		return sv
	}
	return nil
}

// TestOutOfPoolOperandsAreRejected runs FuzzAnalyze's contracts over
// programs no front end makes: in turn, each instruction of a seed that
// names an operand names one past its method's pool instead. Under either
// mode, with or without summaries, the analysis rejects the build or
// degrades the method — it never panics and never elides in it — and the
// verifier and the VM reject it as a structural fault.
func TestOutOfPoolOperandsAreRejected(t *testing.T) {
	const src = `class O { O f; static O s; }
class A {
    static O mk() { O o = new O(); o.f = o; return o; }
    static void main() { O[] a = new O[2]; a[0] = A.mk(); O.s = a[0].f; print(1); }
}`
	compile := func() *bytecode.Program {
		ast, err := minijava.Parse("seed.mj", src)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := minijava.Check("seed.mj", ast)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Compile(checked)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	corrupted := 0
	for n, m := range compile().Methods() {
		for pc := range m.Code {
			if !m.Code[pc].HasOperand() {
				continue
			}
			corrupted++
			for _, opts := range []core.Options{{Mode: core.ModeField}, {Mode: core.ModeFieldArray, Interprocedural: true}} {
				prog := compile()
				bad := prog.Methods()[n]
				bad.Code[pc].Ref = int32(bad.Pool.Len())
				where := fmt.Sprintf("%s pc %d (%s), interprocedural %v", bad.QualifiedName(), pc, bad.Code[pc].Op, opts.Interprocedural)
				rep, err := func() (rep *core.ProgramReport, err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: panic escaped the analysis: %v", where, r)
						}
					}()
					return core.AnalyzeProgram(prog, opts)
				}()
				if err == nil {
					for _, mr := range rep.Methods {
						if mr.Method == bad && (mr.Degraded == core.DegradeNone || mr.FieldElided+mr.ArrayElided+mr.NullOrSame != 0) {
							t.Errorf("%s: analyzed as %s with %d elisions", where, mr.Degraded, mr.FieldElided+mr.ArrayElided+mr.NullOrSame)
						}
					}
				}
				want := fmt.Sprintf("pc %d: operand #%d out of range", pc, bad.Pool.Len())
				if err := verifier.VerifyProgram(prog); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: VerifyProgram = %v, want %q", where, err, want)
				}
				if _, err := vm.New(prog, vm.Config{}).Run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: the VM runs it: %v", where, err)
				}
			}
		}
	}
	if corrupted != 6 {
		t.Errorf("the seed has %d operand instructions, want 6: newinstance, putfield, newarray, invoke, getfield, putstatic", corrupted)
	}
}
