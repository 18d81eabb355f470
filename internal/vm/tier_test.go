package vm_test

// Targeted tests for the compiled hot-method tier: counter-driven tier-up
// hysteresis (a method heats to the threshold, tiers up exactly once, and
// stays tiered), forced deoptimization mid-loop re-entering fused
// dispatch, and the tier knobs' defaulting behaviour. The differential
// harness in engine_diff_test.go covers whole-workload bit-parity; these
// tests pin the tier-up machinery itself on a program small enough to
// reason about by hand.

import (
	"reflect"
	"sync"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// tierTestSource has one hot helper with a store-heavy loop (called
// repeatedly so it heats through both call counts and back-edges) and a
// cold helper called exactly once.
const tierTestSource = `
class Node {
    int val;
    Node next;
    Node(int v) {
        val = v;
    }
}

class Hot {
    static int sum(int n) {
        Node head = null;
        int s = 0;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node(i);
            x.next = head;     // pre-null chain store
            head = x;
            s = s + x.val;
        }
        while (head != null) {
            s = s + head.val;
            head = head.next;
        }
        return s;
    }

    static int once(int x) {
        return x * 3 + 1;
    }

    static void main() {
        int total = Hot.once(7);
        for (int r = 0; r < 24; r = r + 1) {
            total = total + Hot.sum(40);
        }
        print(total);
    }
}
`

func compileTierTest(t *testing.T) *pipeline.Build {
	t.Helper()
	bd, err := pipeline.Compile("tiertest", tierTestSource, pipeline.Options{
		InlineLimit: 0, // keep sum/once as real methods so call counts drive hotness
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

func runTier(t *testing.T, bd *pipeline.Build, cfg vm.Config) *vm.Result {
	t.Helper()
	res, err := bd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameRun demands identical observable results (the tier counters
// and engine label are the only fields allowed to differ).
func assertSameRun(t *testing.T, got, want *vm.Result, gn, wn string) {
	t.Helper()
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("Output: %s %v, %s %v", gn, got.Output, wn, want.Output)
	}
	if got.Steps != want.Steps {
		t.Errorf("Steps: %s %d, %s %d", gn, got.Steps, wn, want.Steps)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("Counters differ between %s and %s", gn, wn)
	}
}

// TestTierUpHysteresis pins the counter-driven tier-up policy: below the
// threshold nothing compiles; once crossed, the hot method compiles
// exactly once and stays compiled (TierUps counts methods, not
// re-translations), and the run is bit-identical either way.
func TestTierUpHysteresis(t *testing.T) {
	bd := compileTierTest(t)
	base := runTier(t, bd, vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineFused})

	// Threshold far above anything the program can reach: the tier is
	// armed but no method ever heats up; the run stays on fused dispatch.
	cold := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 1 << 40,
	})
	if cold.TierUps != 0 || cold.TierSegExecs != 0 {
		t.Errorf("unreachable threshold still tiered: ups=%d segExecs=%d", cold.TierUps, cold.TierSegExecs)
	}
	assertSameRun(t, cold, base, "cold-compiled", "fused")

	// Low threshold: the hot loop and its callee compile; the cold
	// helper (one call, no loop) must not. Repeating the run on a fresh
	// VM must tier up the same methods at the same points.
	hot := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if hot.TierUps == 0 {
		t.Fatal("threshold 8 never tiered up")
	}
	if hot.TierSegExecs == 0 {
		t.Error("tiered run executed no compiled segments")
	}
	if hot.TierUps >= 4 {
		t.Errorf("TierUps = %d, want only the hot methods (sum, main), not every method", hot.TierUps)
	}
	assertSameRun(t, hot, base, "hot-compiled", "fused")

	again := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if again.TierUps != hot.TierUps || again.TierSegExecs != hot.TierSegExecs || again.TierDeopts != hot.TierDeopts {
		t.Errorf("tiering not deterministic: run1 {ups=%d seg=%d deopt=%d} run2 {ups=%d seg=%d deopt=%d}",
			hot.TierUps, hot.TierSegExecs, hot.TierDeopts,
			again.TierUps, again.TierSegExecs, again.TierDeopts)
	}
}

// TestTierForcedDeoptMidLoop is the deopt contract on a method-scale
// program: the hot method tiers up, forced deopt fires mid-loop (well
// after tier-up, well before the program ends), execution re-enters fused
// dispatch for the rest of the run, and Output/Steps/Counters are
// identical to a never-tiered run.
func TestTierForcedDeoptMidLoop(t *testing.T) {
	bd := compileTierTest(t)
	base := runTier(t, bd, vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineFused})

	full := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if full.TierSegExecs < 20 {
		t.Fatalf("need a long compiled run to deopt mid-way, got %d segment execs", full.TierSegExecs)
	}
	after := full.TierSegExecs / 2
	deopt, err := vm.NewWithHooks(bd.Program, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	}, vm.TestHooks{TierForceDeoptAfter: after}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if deopt.TierUps == 0 {
		t.Fatal("deopt run never tiered up")
	}
	if deopt.TierSegExecs != after {
		t.Errorf("TierSegExecs = %d, want exactly %d (forced deopt must stop compiled execution)", deopt.TierSegExecs, after)
	}
	if deopt.TierDeopts == 0 {
		t.Error("forced deopt not recorded in TierDeopts")
	}
	assertSameRun(t, deopt, base, "deopted", "fused")
	assertSameRun(t, deopt, full, "deopted", "fully-compiled")
}

// TestTierConfigSurface pins the knob defaults: threshold 0 means
// DefaultTierThreshold, the compiled engine parses, and EngineUsed
// reports the capability on the Result.
func TestTierConfigSurface(t *testing.T) {
	if vm.DefaultTierThreshold != 64 {
		t.Errorf("DefaultTierThreshold = %d, want 64", vm.DefaultTierThreshold)
	}
	eng, err := vm.ParseEngine("compiled")
	if err != nil || eng != vm.EngineCompiled {
		t.Fatalf("ParseEngine(compiled) = %v, %v", eng, err)
	}
	if got := vm.EngineCompiled.String(); got != "compiled" {
		t.Errorf("EngineCompiled.String() = %q", got)
	}
	if _, err := vm.ParseEngine("jit"); err == nil {
		t.Error("ParseEngine(jit) should fail")
	}

	bd := compileTierTest(t)
	res := runTier(t, bd, vm.Config{Barrier: satb.ModeNoBarrier, Engine: vm.EngineCompiled})
	if res.Engine != "compiled" {
		t.Errorf("Result.Engine = %q, want compiled", res.Engine)
	}
	// The program's hot loop crosses the default threshold (24 calls +
	// ~40 back-edges per call), so even the default must tier up.
	if res.TierUps == 0 {
		t.Error("default threshold never tiered up on the hot loop")
	}
}

// TestSharedTranslationsUnderConcurrency: eight goroutines run the six
// workloads, each on one fresh compile they all share, so first tier-ups
// race to translate and publish the same methods. Every result — tier
// counters included — equals a sequential run of a compile no other VM
// shares. Run it under -race.
func TestSharedTranslationsUnderConcurrency(t *testing.T) {
	cfg := vm.Config{Engine: vm.EngineCompiled, TierThreshold: 2, Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 64}
	fresh := func(w *workloads.Workload) *pipeline.Build {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	ws := workloads.All()
	want := make([]*vm.Result, len(ws))
	shared := make([]*pipeline.Build, len(ws))
	for i, w := range ws {
		want[i] = runTier(t, fresh(w), cfg)
		shared[i] = fresh(w)
	}
	const goroutines = 8
	got := make([][]*vm.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*vm.Result, len(ws))
			for k := range ws {
				i := (g + k) % len(ws)
				if got[g][i], errs[g] = shared[i].Run(cfg); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, w := range ws {
			a, b := got[g][i], want[i]
			assertSameRun(t, a, b, "shared", "sequential")
			if a.TierUps != b.TierUps || a.TierDeopts != b.TierDeopts || a.TierSegExecs != b.TierSegExecs ||
				a.Cycles != b.Cycles || a.Allocated != b.Allocated || a.Swept != b.Swept {
				t.Errorf("%s, goroutine %d: {ups %d deopts %d segs %d cycles %d} against {ups %d deopts %d segs %d cycles %d}",
					w.Name, g, a.TierUps, a.TierDeopts, a.TierSegExecs, a.Cycles, b.TierUps, b.TierDeopts, b.TierSegExecs, b.Cycles)
			}
		}
	}
}

// TestTierChainEntersLoopHeadAtItsEntry pins the segment chain's frame
// switch. A loop's back-edge segment tail-duplicates the loop head, so the
// entry tables at the head's pc name a mid-segment entry (segment, op index,
// covered weight). A call whose callee starts with a loop, or a return that
// lands directly on one, must take all three from the tables — entering that
// segment at op 0 runs the loop body before the loop condition.
func TestTierChainEntersLoopHeadAtItsEntry(t *testing.T) {
	cases := []struct {
		name, src string
		output    []int64
		steps     int64
	}{
		{
			name: "callee-entry",
			src: `
class G { static int n; static int acc; }
class Main {
    static void drain() { while (G.n > 0) { G.n = G.n - 1; G.acc = G.acc + 1; } }
    static void main() {
        int r = 0;
        while (r < 300) { G.n = r % 3; drain(); r = r + 1; }
        print(G.acc); print(G.n);
    }
}`,
			output: []int64{300, 0},
			steps:  9611,
		},
		{
			name: "return-point",
			src: `
class G { static int n; static int acc; }
class Main {
    static void fill(int k) { G.n = k; }
    static void main() {
        int r = 0;
        while (r < 300) {
            fill(r % 3);
            while (G.n > 0) { G.n = G.n - 1; G.acc = G.acc + 1; }
            r = r + 1;
        }
        print(G.acc); print(G.n);
    }
}`,
			output: []int64{300, 0},
			steps:  9911,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bd, err := pipeline.Compile(tc.name, tc.src, pipeline.Options{InlineLimit: 0})
			if err != nil {
				t.Fatal(err)
			}
			sw := runTier(t, bd, vm.Config{Engine: vm.EngineSwitch})
			if !reflect.DeepEqual(sw.Output, tc.output) || sw.Steps != tc.steps {
				t.Fatalf("switch: output %v in %d steps, want %v in %d", sw.Output, sw.Steps, tc.output, tc.steps)
			}
			for _, threshold := range []int64{0, 2} {
				comp := runTier(t, bd, vm.Config{Engine: vm.EngineCompiled, TierThreshold: threshold})
				if comp.TierSegExecs == 0 {
					t.Errorf("threshold %d: no compiled segment ran", threshold)
				}
				assertSameRun(t, comp, sw, "compiled", "switch")
			}
			assertSameRun(t, runTier(t, bd, vm.Config{Engine: vm.EngineFused}), sw, "fused", "switch")
		})
	}
}
