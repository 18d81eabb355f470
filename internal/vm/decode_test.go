package vm

import (
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
	"satbelim/internal/workloads"
)

// TestDecodedSitesMatchSiteCounts: the VM's site tables and the analysis
// report's site columns are both read off satb.SiteOf, so on every method
// of every workload they count the same sites, and each decoded site is a
// store the predicate accepts, of that kind, carrying the verdict the table
// holds at its pc.
func TestDecodedSitesMatchSiteCounts(t *testing.T) {
	for _, w := range workloads.All() {
		p := compileSrc(t, w.Source, 100)
		rep, err := core.AnalyzeProgram(p, core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true})
		if err != nil {
			t.Fatal(err)
		}
		vt := p.Verdicts()
		d := decodeProgram(p, vt, allVerdicts)
		if d.err != nil {
			t.Fatalf("%s: decode: %v", w.Name, d.err)
		}
		sites := d.sites
		for i, mr := range rep.Methods {
			n := 0
			for n < len(sites) && sites[n].key.Method == mr.Method.QualifiedName() {
				n++
			}
			if n != mr.FieldSites+mr.ArraySites {
				t.Errorf("%s %s: %d decoded sites, report counts %d field + %d array",
					w.Name, mr.Method.QualifiedName(), n, mr.FieldSites, mr.ArraySites)
			}
			for _, s := range sites[:n] {
				in, v := &mr.Method.Code[s.key.PC], vt.At(i, s.key.PC)
				if kind, ok := satb.SiteOf(p.Symbols(), in.Op, p.Body(i).FieldAt[s.key.PC]); !ok || kind != s.kind || v != s.elide {
					t.Errorf("%s %s pc %d (%s): decoded as %v site with verdict %v; predicate says %v/%v, table says %v",
						w.Name, s.key.Method, s.key.PC, in, s.kind, s.elide, kind, ok, v)
				}
			}
			sites = sites[n:]
		}
		if len(sites) > 0 {
			t.Errorf("%s: %d decoded sites belong to no method", w.Name, len(sites))
		}
	}
}

// fusedOpsByHead decodes a program and returns the superinstruction kind
// at each fused head pc of the main method.
func fusedOpsByHead(t *testing.T, p *bytecode.Program) map[int]dop {
	t.Helper()
	d := decodeProgram(p, p.Verdicts(), allVerdicts)
	if d.err != nil {
		t.Fatalf("decode: %v", d.err)
	}
	out := map[int]dop{}
	for pc := range d.main.code {
		if fu := d.main.code[pc].fuse; fu >= 0 {
			out[pc] = d.main.fused[fu].op
		}
	}
	return out
}

// buildBranchIntoFused hand-builds a program whose first loop entry jumps
// into the MIDDLE of a fused region (pc 8, the second component of the
// fLLArith at pc 7), exercising the plain-instruction path that fusion
// must leave intact at every pc.
//
//	 0: const 5      ┐ fConstStore
//	 1: store i      ┘
//	 2: const 0      ┐ fConstStore
//	 3: store acc    ┘
//	 4: load acc     ; push acc before entering mid-region
//	 5: goto 8
//	 6: nop
//	 7: load acc     ┐
//	 8: load i       │ fLLArith (head 7)
//	 9: add          ┘
//	10: store acc
//	11: load i       ┐
//	12: const 1      │ fIncLocal (head 11)
//	13: sub          │
//	14: store i      ┘
//	15: load i       ┐
//	16: const 0      │ fLCCmpBr (head 15)
//	17: cmpgt        │
//	18: iftrue 7     ┘
//	19: load acc
//	20: print
//	21: return
func buildBranchIntoFused() *bytecode.Program {
	prog := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "main", true)
	i := b.DeclareSlot(bytecode.Int)
	acc := b.DeclareSlot(bytecode.Int)
	b.Const(5)
	b.Store(i)
	b.Const(0)
	b.Store(acc)
	b.Load(acc)
	b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 8})
	b.Op(bytecode.OpNop)
	b.Load(acc) // pc 7: loop head and fused head
	b.Load(i)   // pc 8: mid-region branch target
	b.Op(bytecode.OpAdd)
	b.Store(acc)
	b.Load(i)
	b.Const(1)
	b.Op(bytecode.OpSub)
	b.Store(i)
	b.Load(i)
	b.Const(0)
	b.Op(bytecode.OpCmpGT)
	b.Emit(bytecode.Instr{Op: bytecode.OpIfTrue, A: 7})
	b.Load(acc)
	b.Op(bytecode.OpPrint)
	b.Return()
	cls.Methods = append(cls.Methods, b.Build())
	prog.AddClass(cls)
	prog.Main = bytecode.MethodRef{Class: "T", Name: "main"}
	return prog
}

func TestFusionPatternDetection(t *testing.T) {
	fused := fusedOpsByHead(t, buildBranchIntoFused())
	want := map[int]dop{
		0:  fConstStore,
		2:  fConstStore,
		7:  fLLArith,
		11: fIncLocal,
		15: fLCCmpBr,
	}
	for pc, op := range want {
		if fused[pc] != op {
			t.Errorf("pc %d: fused op %d, want %d (all: %v)", pc, fused[pc], op, fused)
		}
	}
}

func TestBranchIntoFusedRegion(t *testing.T) {
	p := buildBranchIntoFused()
	var results []*Result
	for _, eng := range []Engine{EngineFused, EngineSwitch} {
		// Quantum 3 additionally forces fused ops to straddle quantum
		// boundaries and fall back to single-instruction execution.
		for _, quantum := range []int{0, 3} {
			res, err := New(p, Config{Engine: eng, Quantum: quantum}).Run()
			if err != nil {
				t.Fatalf("engine %v quantum %d: %v", eng, quantum, err)
			}
			if !reflect.DeepEqual(res.Output, []int64{15}) {
				t.Errorf("engine %v quantum %d: output = %v, want [15]", eng, quantum, res.Output)
			}
			results = append(results, res)
		}
	}
	for _, res := range results[1:] {
		if res.Steps != results[0].Steps {
			t.Errorf("step counts diverge across engines/quanta: %d vs %d", res.Steps, results[0].Steps)
		}
	}
}

// TestStructurallyFaultyProgramRunsOnNoEngine: a program whose body fails
// the structural check (here an invoke of a method nobody declares) is not
// runnable, and every engine says so in the same words before it executes
// an instruction.
func TestStructurallyFaultyProgramRunsOnNoEngine(t *testing.T) {
	b := bytecode.NewBuilder("T", "main", true)
	b.Invoke(bytecode.MethodRef{Class: "T", Name: "nope"})
	b.Return()
	prog := mainOnly(b)
	for _, eng := range []Engine{EngineSwitch, EngineFused, EngineCompiled} {
		v := New(prog, Config{Engine: eng})
		res, err := v.Run()
		if err == nil || err.Error() != "vm: T.main: pc 0: unresolved method T.nope" || res != nil || v.steps != 0 {
			t.Errorf("%v: %+v after %d steps, %v; want the structural fault before any step", eng, res, v.steps, err)
		}
	}
}

func TestEngineSelection(t *testing.T) {
	p := compileSrc(t, `class A { static void main() { print(7); } }`, 0)
	for _, eng := range []Engine{EngineFused, EngineSwitch, EngineCompiled} {
		res, err := New(p, Config{Engine: eng}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != eng.String() {
			t.Errorf("Result.Engine = %q, want %q", res.Engine, eng)
		}
	}
	if res, _ := New(p, Config{}).Run(); res.Engine != "fused" {
		t.Errorf("default engine = %q, want fused", res.Engine)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		err  bool
	}{
		{"fused", EngineFused, false},
		{"", EngineFused, false},
		{"switch", EngineSwitch, false},
		{"jit", EngineFused, true},
	} {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestGCKindNamesRoundTrip: String is the inverse of ParseGCKind over every
// kind, so a collector printed in a report or a test name parses back.
func TestGCKindNamesRoundTrip(t *testing.T) {
	for k := range GCKind(len(gcNames)) {
		if got, err := ParseGCKind(k.String()); err != nil || got != k {
			t.Errorf("ParseGCKind(%q) = %v, %v, want %d", k.String(), got, err, int(k))
		}
	}
	if _, err := ParseGCKind("conditional"); err == nil {
		t.Error(`ParseGCKind("conditional") should fail`)
	}
}

func TestFramePoolReuse(t *testing.T) {
	// Enough calls to cycle frames through the pool many times; a stale
	// local or stack slot would corrupt the running sum.
	out := run(t, `
class A {
    static int add(int a, int b) { int s = a + b; return s; }
    static void main() {
        int total = 0;
        int i = 0;
        while (i < 1000) { total = A.add(total, i); i = i + 1; }
        print(total);
    }
}
`)
	if !reflect.DeepEqual(out, []int64{499500}) {
		t.Errorf("output = %v, want [499500]", out)
	}
}
