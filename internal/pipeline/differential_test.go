package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/inline"
	"satbelim/internal/progen"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// The differential harness drives generated programs through the full
// pipeline at several inline limits and worker counts and cross-checks:
//
//  1. program output is invariant across inline limit, worker count, and
//     barrier mode (elision must never change observable behavior);
//  2. analysis results are invariant across worker counts at each limit;
//  3. every elided store validates under the runtime soundness oracle;
//  4. no method degrades under default (unlimited) budgets.

var diffLimits = []int{0, 50, 200}

func diffSeeds(t *testing.T) []string {
	n := 12
	if testing.Short() {
		n = 4
	}
	return progen.Corpus(5000, n, progen.DefaultConfig())
}

func TestDifferentialInlineWorkerOracle(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	for si, src := range diffSeeds(t) {
		var baseline []int64
		for _, limit := range diffLimits {
			b1, err := Compile("gen", src, Options{InlineLimit: limit, Analysis: opts, Workers: 1, NoCache: true})
			if err != nil {
				t.Fatalf("seed %d limit %d: %v", si, limit, err)
			}
			b8, err := Compile("gen", src, Options{InlineLimit: limit, Analysis: opts, Workers: 8, NoCache: true})
			if err != nil {
				t.Fatalf("seed %d limit %d workers=8: %v", si, limit, err)
			}
			r1, r8 := b1.Report, b8.Report
			if !reflect.DeepEqual(r1, r8) {
				t.Errorf("seed %d limit %d: reports differ across worker counts", si, limit)
			}
			if d := r1.Degraded(); len(d) > 0 {
				t.Errorf("seed %d limit %d: methods degraded under default budgets: %v", si, limit, d)
			}
			m1 := b1.Program.Methods()
			v1, v8 := b1.Program.Verdicts(), b8.Program.Verdicts()
			for i := range m1 {
				for pc := range m1[i].Code {
					if v1.At(i, pc) != v8.At(i, pc) {
						t.Errorf("seed %d limit %d %s pc %d: elision bits differ across worker counts",
							si, limit, m1[i].QualifiedName(), pc)
					}
				}
			}
			// Oracle run under concurrent marking: every elided store must
			// overwrite null on an unescaped target.
			res, err := b1.Run(vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 64,
				CheckInvariant:     true,
				CheckElisions:      true,
			})
			if err != nil {
				t.Fatalf("seed %d limit %d: oracle run failed: %v", si, limit, err)
			}
			if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
				t.Errorf("seed %d limit %d: unsound sites %v", si, limit, s.UnsoundSites)
			}
			if baseline == nil {
				baseline = res.Output
			} else if !reflect.DeepEqual(baseline, res.Output) {
				t.Errorf("seed %d limit %d: output differs from limit %d baseline", si, limit, diffLimits[0])
			}
		}
	}
}

// TestDifferentialDegradedStillCorrect runs generated programs with a
// starvation budget: every method degrades to all-barriers, and the
// program must still run to the same output (degradation is sound, only
// less precise).
func TestDifferentialDegradedStillCorrect(t *testing.T) {
	full := core.Options{Mode: core.ModeFieldArray, NullOrSame: true}
	starved := full
	starved.MaxBlockVisits = 1
	for si, src := range diffSeeds(t) {
		bf, err := Compile("gen", src, Options{InlineLimit: 100, Analysis: full})
		if err != nil {
			t.Fatalf("seed %d: %v", si, err)
		}
		bs, err := Compile("gen", src, Options{InlineLimit: 100, Analysis: starved})
		if err != nil {
			t.Fatalf("seed %d starved: %v", si, err)
		}
		cfg := vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 64, CheckInvariant: true, CheckElisions: true}
		rf, err := bf.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", si, err)
		}
		rs, err := bs.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d starved: %v", si, err)
		}
		if !reflect.DeepEqual(rf.Output, rs.Output) {
			t.Errorf("seed %d: degraded build changed program output", si)
		}
		if rs.ElisionChecks != 0 {
			t.Errorf("seed %d: degraded build still executed %d elided stores", si, rs.ElisionChecks)
		}
	}
}

// perMethodPools gives every method of p an operand pool of its own, holding
// only the operands the method names in the order it first names them, as
// a stand-alone NewBuilder per method would.
func perMethodPools(p *bytecode.Program) {
	for _, m := range p.Methods() {
		b := bytecode.NewBuilder(m.Class, m.Name, m.Static)
		for pc := range m.Code {
			if m.Code[pc].HasOperand() {
				m.Code[pc].Ref = b.Operand(*m.Operand(pc))
			}
		}
		m.Pool = b.Method().Pool
	}
	p.CodeChanged()
}

// TestDifferentialPerMethodPools: which pool an operand lives in is not
// observable. The code generator gives a program one pool; the same
// program with a pool per method, inlined, verified and analyzed, must
// disassemble — every instruction, operand and verdict — exactly as the
// pipeline's build does, though every expansion then splices in a callee
// whose operand indices name another pool.
func TestDifferentialPerMethodPools(t *testing.T) {
	opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for i, src := range diffSeeds(t) {
		srcs[fmt.Sprintf("seed%d", i)] = src
	}
	for name, src := range srcs {
		for _, limit := range diffLimits[1:] {
			want, err := Compile(name, src, Options{InlineLimit: limit, Analysis: opts, NoCache: true})
			if err != nil {
				t.Fatalf("%s limit %d: %v", name, limit, err)
			}
			base, err := Compile(name, src, Options{NoCache: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := base.Program
			perMethodPools(p)
			if inline.Apply(p, inline.Options{Limit: limit}).Expanded != want.InlinedCalls {
				t.Fatalf("%s limit %d: expanded a different number of calls", name, limit)
			}
			if err := verifier.VerifyProgram(p); err != nil {
				t.Fatalf("%s limit %d with a pool per method: %v", name, limit, err)
			}
			if _, err := core.AnalyzeProgram(p, opts); err != nil {
				t.Fatalf("%s limit %d with a pool per method: %v", name, limit, err)
			}
			if got, want := bytecode.DisassembleProgram(p), bytecode.DisassembleProgram(want.Program); got != want {
				t.Errorf("%s limit %d: with a pool per method the build disassembles differently:\n%s", name, limit, firstDiff(got, want))
			}
		}
	}
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
