package pipeline

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/minijava"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

const src = `
class P { int x; P(int x0) { x = x0; } }
class T {
    static P keep;
    static void main() {
        P p = new P(3);
        T.keep = p;
        print(p.x);
    }
}
`

func TestCompileProducesRunnableBuild(t *testing.T) {
	b, err := Compile("t", src, Options{InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}})
	if err != nil {
		t.Fatal(err)
	}
	if b.BytecodeBytes <= 0 {
		t.Error("bytecode size not recorded")
	}
	if b.InlinedCalls != 1 {
		t.Errorf("InlinedCalls = %d, want 1 (the ctor)", b.InlinedCalls)
	}
	if b.Report == nil {
		t.Fatal("analysis report missing")
	}
	if b.CompileTime() <= 0 {
		t.Error("compile time not recorded")
	}
	res, err := b.Run(vm.Config{Barrier: satb.ModeConditional})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{3}) {
		t.Errorf("output = %v", res.Output)
	}
}

func TestCompileModeNoneSkipsAnalysis(t *testing.T) {
	b, err := Compile("t", src, Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if b.Report != nil || b.StageTime[StageAnalyze] != 0 {
		t.Error("mode B should not run the analysis")
	}
}

func TestCompileErrorsArePropagated(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"syntax", `class A {`, "unexpected end of file"},
		{"type", `class A { static void main() { x = 1; } }`, "undefined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("t", c.src, Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestDeepNestingIsASyntaxError: 450 000 nested parentheses, 900 055
// bytes, are rejected by the parser's nesting bound instead of overflowing
// the goroutine stack, which no recover can catch.
func TestDeepNestingIsASyntaxError(t *testing.T) {
	deep := "class A { static void main() { int x = " + strings.Repeat("(", 450000) + "1" + strings.Repeat(")", 450000) + "; print(x); } }"
	_, err := Compile("deep", deep, Options{NoCache: true})
	var se *minijava.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *minijava.SyntaxError", err)
	}
}

func TestCompiledCodeSizeShrinksWithElision(t *testing.T) {
	bB, err := Compile("t", src, Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	bA, err := Compile("t", src, Options{InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}})
	if err != nil {
		t.Fatal(err)
	}
	// This program has no eligible ref stores in main (p.x is an int
	// field), so sizes should be equal; use a program with a ref store.
	if bA.CompiledCodeSize() > bB.CompiledCodeSize() {
		t.Error("analysis must never grow modeled code size")
	}

	srcRef := `
class N { N next; }
class T { static void main() { N n = new N(); n.next = new N(); } }
`
	cB, err := Compile("t", srcRef, Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	cA, err := Compile("t", srcRef, Options{InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cB.CompiledCodeSize()-cA.CompiledCodeSize(), BarrierInlineBytes; got != want {
		t.Errorf("one elided site should save %d bytes, saved %d", want, got)
	}
}

// TestParallelAnalysisDeterministic is the determinism contract of the
// parallel pipeline: on every workload, a single-worker build and an
// 8-worker build must produce byte-identical analysis reports and
// per-instruction elision bits. All analysis extensions are enabled so
// every elision flag is exercised. The cache is bypassed here and in the
// other worker-count differentials: the worker count is not part of its
// key, so the second build would be the first one served again.
func TestParallelAnalysisDeterministic(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			b1, err := Compile(w.Name, w.Source, Options{InlineLimit: 100, Analysis: opts, Workers: 1, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			b8, err := Compile(w.Name, w.Source, Options{InlineLimit: 100, Analysis: opts, Workers: 8, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			r1, r8 := b1.Report, b8.Report
			if !reflect.DeepEqual(r1, r8) {
				t.Errorf("reports differ between Workers=1 and Workers=8:\n%s\nvs\n%s", r1, r8)
			}
			m1, m8 := b1.Program.Methods(), b8.Program.Methods()
			v1, v8 := b1.Program.Verdicts(), b8.Program.Verdicts()
			if len(m1) != len(m8) {
				t.Fatalf("method counts differ: %d vs %d", len(m1), len(m8))
			}
			for i := range m1 {
				if len(m1[i].Code) != len(m8[i].Code) {
					t.Fatalf("%s: code lengths differ", m1[i].QualifiedName())
				}
				for pc := range m1[i].Code {
					if x, y := v1.At(i, pc), v8.At(i, pc); x != y {
						t.Errorf("%s pc %d: verdicts differ: %v vs %v",
							m1[i].QualifiedName(), pc, x, y)
					}
				}
			}
		})
	}
}

// TestWorkersDefaultMatchesExplicit checks the GOMAXPROCS default path
// agrees with an explicit worker count. Neither side may be served from the
// cache: the worker count is not part of its key.
func TestWorkersDefaultMatchesExplicit(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray}
	bDef, err := Compile("t", src, Options{InlineLimit: 100, Analysis: opts, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	bOne, err := Compile("t", src, Options{InlineLimit: 100, Analysis: opts, Workers: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	d, o := bDef.Report, bOne.Report
	if !reflect.DeepEqual(d, o) {
		t.Error("default worker count changed analysis results")
	}
}

func TestInlineLimitChangesBytecodeSize(t *testing.T) {
	b0, err := Compile("t", src, Options{InlineLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	b100, err := Compile("t", src, Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if b100.BytecodeBytes <= b0.BytecodeBytes {
		t.Errorf("inlining should grow main: %d vs %d", b100.BytecodeBytes, b0.BytecodeBytes)
	}
}

// TestDegradationDeterministic extends the determinism contract to the
// degradation path: a budget every loop method exceeds must produce the
// same degraded reports and (cleared) elision bits at Workers=1 and
// Workers=8 — bail-out decisions cannot depend on scheduling.
func TestDegradationDeterministic(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, MaxBlockVisits: 1}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			b1, err := Compile(w.Name, w.Source, Options{InlineLimit: 100, Analysis: opts, Workers: 1, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			b8, err := Compile(w.Name, w.Source, Options{InlineLimit: 100, Analysis: opts, Workers: 8, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(b1.Report.Degraded()) == 0 {
				t.Fatal("MaxBlockVisits=1 should degrade at least one method")
			}
			r1, r8 := b1.Report, b8.Report
			if !reflect.DeepEqual(r1, r8) {
				t.Errorf("degraded reports differ between Workers=1 and Workers=8:\n%s\nvs\n%s", r1, r8)
			}
			m1 := b1.Program.Methods()
			v1, v8 := b1.Program.Verdicts(), b8.Program.Verdicts()
			for i := range m1 {
				for pc := range m1[i].Code {
					if v1.At(i, pc) != v8.At(i, pc) {
						t.Errorf("%s pc %d: elision bits differ under degradation", m1[i].QualifiedName(), pc)
					}
				}
			}
		})
	}
}

// TestConcurrentRunsShareOneBuild: a cached Build is run by many requests
// at once, and everything a VM reads off the program — the symbol table,
// the layout, the code — is shared between them. Run under -race.
func TestConcurrentRunsShareOneBuild(t *testing.T) {
	b, err := Compile("shared", workloads.JBB().Source, Options{InlineLimit: 25, NoCache: true,
		Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Run(vm.Config{Engine: vm.EngineSwitch})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(engine vm.Engine) {
			defer wg.Done()
			got, err := b.Run(vm.Config{Engine: engine, GC: vm.GCSATB})
			if err != nil {
				t.Errorf("engine %v: %v", engine, err)
			} else if !reflect.DeepEqual(got.Output, want.Output) || b.CompiledCodeSize() <= 0 {
				t.Errorf("engine %v: output %v, want %v", engine, got.Output, want.Output)
			}
		}([]vm.Engine{vm.EngineFused, vm.EngineSwitch, vm.EngineCompiled}[g%3])
	}
	wg.Wait()
}
