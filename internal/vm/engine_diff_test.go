package vm_test

// Differential harness for the three execution engines: every workload
// runs under the pre-decoded fused engine, the reference switch
// interpreter, and the compiled hot-method tier across the barrier modes
// and analysis configurations of the paper's evaluation, with and without
// the runtime elision oracle, and the Results must be bit-identical —
// output, step counts, GC cycles, allocation/sweep totals, oracle check
// counts, and the full per-site barrier counters. The compiled tier runs
// with an aggressive threshold so every workload actually tiers up, and
// a forced-deopt sweep proves that abandoning compiled code mid-run
// changes nothing observable.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// diffConfig is one compile+run configuration of the sweep.
type diffConfig struct {
	name     string
	analysis core.Options
	run      vm.Config
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{
			name: "nobarrier",
			run:  vm.Config{Barrier: satb.ModeNoBarrier},
		},
		{
			name: "alwayslog",
			run:  vm.Config{Barrier: satb.ModeAlwaysLog},
		},
		{
			name:     "alwayslog-elim",
			analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
			run:      vm.Config{Barrier: satb.ModeAlwaysLog},
		},
		{
			name:     "conditional-gc",
			analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
			run: vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 64,
				CheckInvariant:     true,
			},
		},
	}
}

// diffTierThreshold tiers every method up almost immediately so the
// compiled tier, not its fused fallback, is what the sweep exercises.
const diffTierThreshold = 2

// runEngine executes one build on one engine.
func runEngine(t *testing.T, bd *pipeline.Build, cfg vm.Config, eng vm.Engine) *vm.Result {
	t.Helper()
	cfg.Engine = eng
	if eng == vm.EngineCompiled && cfg.TierThreshold == 0 {
		cfg.TierThreshold = diffTierThreshold
	}
	res, err := bd.Run(cfg)
	if err != nil {
		t.Fatalf("engine %v: %v", eng, err)
	}
	return res
}

// assertIdentical compares every semantic field of two Results (Engine
// and the tier counters are the intentionally differing, informational
// fields).
func assertIdentical(t *testing.T, a, b *vm.Result, an, bn string) {
	t.Helper()
	if a.Engine != an || b.Engine != bn {
		t.Fatalf("engine labels: got %q/%q, want %q/%q", a.Engine, b.Engine, an, bn)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("Output differs: %s %d values, %s %d values", an, len(a.Output), bn, len(b.Output))
	}
	if a.Steps != b.Steps {
		t.Errorf("Steps: %s %d, %s %d", an, a.Steps, bn, b.Steps)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles: %s %d, %s %d", an, a.Cycles, bn, b.Cycles)
	}
	if a.FinalPauseWork != b.FinalPauseWork {
		t.Errorf("FinalPauseWork: %s %d, %s %d", an, a.FinalPauseWork, bn, b.FinalPauseWork)
	}
	if a.Allocated != b.Allocated {
		t.Errorf("Allocated: %s %d, %s %d", an, a.Allocated, bn, b.Allocated)
	}
	if a.Swept != b.Swept {
		t.Errorf("Swept: %s %d, %s %d", an, a.Swept, bn, b.Swept)
	}
	if a.ElisionChecks != b.ElisionChecks {
		t.Errorf("ElisionChecks: %s %d, %s %d", an, a.ElisionChecks, bn, b.ElisionChecks)
	}
	if a.TotalCost() != b.TotalCost() {
		t.Errorf("TotalCost: %s %d, %s %d", an, a.TotalCost(), bn, b.TotalCost())
	}
	// The counters must match to the last per-site statistic, including
	// which sites exist at all (site stats are created lazily on first
	// execution in every engine).
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		as, bs := a.Counters.Summarize(), b.Counters.Summarize()
		t.Errorf("Counters differ: %s {cost=%d logged=%d execs=%d sites=%d} %s {cost=%d logged=%d execs=%d sites=%d}",
			an, a.Counters.Cost, a.Counters.Logged, as.TotalExecs, len(a.Counters.Sites()),
			bn, b.Counters.Cost, b.Counters.Logged, bs.TotalExecs, len(b.Counters.Sites()))
	}
}

// diffInlineLimits are the inline limits the differentials compile at. The
// tier's translation depends on what the inliner leaves behind: at limit 100
// nearly every callee is gone, at 25 the mid-size ones remain, and at 0 every
// call and return point is a real frame switch (loop heads as method entries
// and as return points — the shapes the chain's entry tables must get right).
var diffInlineLimits = []int{100, 25, 0}

// limitSuffix names a sweep cell's inline limit; the long-standing limit-100
// cells keep their bare names.
func limitSuffix(limit int) string {
	if limit == 100 {
		return ""
	}
	return fmt.Sprintf("/inline%d", limit)
}

// TestEngineDifferentialWorkloads sweeps all six Table 1 workloads across
// inline limits × barrier modes × analysis configurations × oracle on/off,
// on all three engines. The compiled tier must be bit-identical to both
// reference engines; under the oracle, tier-up is disabled and the run
// degrades to fused dispatch (TierUps must be 0), still bit-identical.
func TestEngineDifferentialWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for _, dc := range diffConfigs() {
			for _, limit := range diffInlineLimits {
				bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
					InlineLimit: limit,
					Analysis:    dc.analysis,
				})
				if err != nil {
					t.Fatalf("%s/%s: compile at limit %d: %v", w.Name, dc.name, limit, err)
				}
				for _, oracle := range []bool{false, true} {
					name := w.Name + "/" + dc.name + limitSuffix(limit)
					if oracle {
						name += "/oracle"
					}
					t.Run(name, func(t *testing.T) {
						cfg := dc.run
						cfg.CheckElisions = oracle
						fused := runEngine(t, bd, cfg, vm.EngineFused)
						sw := runEngine(t, bd, cfg, vm.EngineSwitch)
						comp := runEngine(t, bd, cfg, vm.EngineCompiled)
						assertIdentical(t, fused, sw, "fused", "switch")
						assertIdentical(t, comp, fused, "compiled", "fused")
						if oracle {
							if comp.TierUps != 0 || comp.TierSegExecs != 0 {
								t.Errorf("oracle run tiered up (ups=%d segExecs=%d); the tier must disable itself under the oracle",
									comp.TierUps, comp.TierSegExecs)
							}
							// Below limit 100 a workload may keep every
							// barrier (jess and jack do at 0: nothing is
							// provably pre-null without their constructors
							// inlined); the oracle must have validated
							// something exactly when elided stores executed.
							sum := fused.Counters.Summarize()
							elided := sum.ElidedExecs + sum.NullOrSameExecs + sum.RearrangeExecs
							if fused.ElisionChecks == 0 && (elided > 0 || limit == 100 && dc.analysis.Mode != core.ModeNone) {
								t.Error("oracle ran but validated no elided stores")
							}
						} else {
							if comp.TierUps == 0 {
								t.Errorf("compiled run tiered up no methods at threshold %d", diffTierThreshold)
							}
							if comp.TierSegExecs == 0 {
								t.Error("compiled run executed no compiled segments")
							}
						}
					})
				}
			}
		}
	}
}

// TestEngineDifferentialFlavorMatrix sweeps the new barrier flavors
// (yuasa, dijkstra, hybrid) across every safe collector pairing and
// oracle on/off, on all three engines, with the full analysis enabled.
// Every flavor must be bit-identical across engines; the projection of
// analysis verdicts through each flavor's soundness predicate happens
// per-engine (decode-time for fused/compiled, per-store for switch), so
// this is the test that a projection bug in any one path cannot hide.
func TestEngineDifferentialFlavorMatrix(t *testing.T) {
	analysis := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	pairings := []struct {
		mode satb.BarrierMode
		gc   vm.GCKind
	}{
		{satb.ModeYuasa, vm.GCNone},
		{satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCNone},
		{satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCIncremental},
		{satb.ModeHybrid, vm.GCNone},
		{satb.ModeHybrid, vm.GCSATB},
		{satb.ModeHybrid, vm.GCIncremental},
	}
	gcName := map[vm.GCKind]string{vm.GCNone: "none", vm.GCSATB: "satb", vm.GCIncremental: "inc"}
	for _, w := range workloads.All() {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100,
			Analysis:    analysis,
		})
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, pr := range pairings {
			for _, oracle := range []bool{false, true} {
				name := w.Name + "/" + pr.mode.String() + "/" + gcName[pr.gc]
				if oracle {
					name += "/oracle"
				}
				t.Run(name, func(t *testing.T) {
					cfg := vm.Config{
						Barrier:            pr.mode,
						GC:                 pr.gc,
						TriggerEveryAllocs: 64,
						// Armed only on snapshot-sound flavors (yuasa,
						// hybrid); a no-op with GC off.
						CheckInvariant: true,
						CheckElisions:  oracle,
					}
					fused := runEngine(t, bd, cfg, vm.EngineFused)
					sw := runEngine(t, bd, cfg, vm.EngineSwitch)
					comp := runEngine(t, bd, cfg, vm.EngineCompiled)
					assertIdentical(t, fused, sw, "fused", "switch")
					assertIdentical(t, comp, fused, "compiled", "fused")
					if oracle {
						// Dijkstra projects every deletion-side verdict
						// away, so the oracle has nothing to validate;
						// the deletion-capable flavors must validate the
						// kept subset.
						if pr.mode == satb.ModeDijkstra && fused.ElisionChecks != 0 {
							t.Errorf("dijkstra validated %d elisions, want 0 (all verdicts projected)", fused.ElisionChecks)
						}
						if pr.mode != satb.ModeDijkstra && fused.ElisionChecks == 0 {
							t.Error("oracle ran but validated no elided stores")
						}
					}
					s := fused.Counters.Summarize()
					if len(s.UnsoundSites) > 0 {
						t.Errorf("unsound sites under %s: %v", pr.mode, s.UnsoundSites)
					}
					if pr.mode == satb.ModeDijkstra && s.ElidedExecs+s.NullOrSameExecs+s.RearrangeExecs != 0 {
						t.Errorf("dijkstra executed elided sites (prenull=%d nos=%d rearr=%d), projection leaked",
							s.ElidedExecs, s.NullOrSameExecs, s.RearrangeExecs)
					}
				})
			}
		}
	}
}

// TestEngineDifferentialQuantumBoundaries stresses boundary gating at
// scheduler quantum ends: tiny odd quanta force fused superinstructions
// and whole compiled segments to straddle quantum ends and fall back to
// the per-instruction path mid-sequence, which must not perturb any
// observable result. Quantum 1 is the extreme: no compiled segment longer
// than one instruction ever fits, so the compiled engine runs almost
// entirely on its deopt path.
func TestEngineDifferentialQuantumBoundaries(t *testing.T) {
	w, err := workloads.Get("jbb")
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range diffInlineLimits {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: limit,
			Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, quantum := range []int{1, 2, 3, 5, 7, 13, 64} {
			cfg := vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 32,
				Quantum:            quantum,
			}
			fused := runEngine(t, bd, cfg, vm.EngineFused)
			sw := runEngine(t, bd, cfg, vm.EngineSwitch)
			comp := runEngine(t, bd, cfg, vm.EngineCompiled)
			t.Run("quantum", func(t *testing.T) {
				assertIdentical(t, fused, sw, "fused", "switch")
				assertIdentical(t, comp, fused, "compiled", "fused")
			})
		}
	}
}

// TestEngineDifferentialStepBudget verifies that budget exhaustion
// surfaces at the identical instruction on all three engines (a fused
// form or compiled segment must never over- or under-run MaxSteps). With no
// collector the decoded engines run db as one thread in coalesced turns of
// 2^16 steps, so the last two budgets land in the middle of one, thousands of
// unvisited quantum boundaries away from where the turn began.
func TestEngineDifferentialStepBudget(t *testing.T) {
	w, err := workloads.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 7, 100, 1001, 4999, 70001, 100003} {
		var errs []error
		for _, eng := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
			m := vm.New(bd.Program, vm.Config{
				Barrier: satb.ModeAlwaysLog, MaxSteps: budget, Engine: eng, TierThreshold: diffTierThreshold,
			})
			_, err := m.Run()
			if err == nil {
				t.Fatalf("budget %d: %v ran to completion, expected exhaustion", budget, eng)
			}
			if got := m.StepsExecuted(); got != budget {
				t.Errorf("budget %d: %v stopped at step %d", budget, eng, got)
			}
			errs = append(errs, err)
		}
		if errs[1].Error() != errs[0].Error() {
			t.Errorf("budget %d: fused error %q, switch error %q", budget, errs[1], errs[0])
		}
		if errs[2].Error() != errs[0].Error() {
			t.Errorf("budget %d: compiled error %q, switch error %q", budget, errs[2], errs[0])
		}
	}
}

// TestEngineDifferentialForcedDeopt runs the compiled tier with forced
// deoptimization firing at varying points mid-execution — after the
// first compiled segment, mid-loop, deep into the run — and demands
// bit-identical results versus the fused engine. This is the deopt
// contract: abandoning compiled code at ANY segment boundary re-enters
// fused dispatch with no observable difference.
func TestEngineDifferentialForcedDeopt(t *testing.T) {
	for _, wname := range []string{"db", "mtrt"} {
		w, err := workloads.Get(wname)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100,
			Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 64,
		}
		fused := runEngine(t, bd, cfg, vm.EngineFused)
		for _, after := range []int64{1, 5, 50, 500} {
			ccfg := cfg
			ccfg.Engine = vm.EngineCompiled
			ccfg.TierThreshold = diffTierThreshold
			comp, err := vm.NewWithHooks(bd.Program, ccfg, vm.TestHooks{TierForceDeoptAfter: after}).Run()
			if err != nil {
				t.Fatalf("forced deopt after %d: %v", after, err)
			}
			t.Run(wname, func(t *testing.T) {
				assertIdentical(t, comp, fused, "compiled", "fused")
				if comp.TierSegExecs != after {
					t.Errorf("deopt after %d: TierSegExecs = %d, want exactly %d", after, comp.TierSegExecs, after)
				}
				if comp.TierDeopts == 0 {
					t.Errorf("deopt after %d: TierDeopts = 0, want forced deopt recorded", after)
				}
			})
		}
	}
}

// horizonConfigs are the collector situations the scheduling horizon
// distinguishes: nothing to observe (GCNone), an idle marker whose trigger is
// far away, one whose trigger is no multiple of the quantum, one whose trigger
// is nearer than a quantum, a second collector, and permanent marking (the
// horizon must stay at one quantum throughout).
func horizonConfigs() []diffConfig {
	return []diffConfig{
		{name: "none", run: vm.Config{Barrier: satb.ModeConditional}},
		{name: "satb1000", run: vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 1000, CheckInvariant: true}},
		{name: "satb129", run: vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 129, CheckInvariant: true}},
		{name: "satb40", run: vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 40, CheckInvariant: true}},
		{name: "inc500", run: vm.Config{Barrier: satb.ModeCardMarking, GC: vm.GCIncremental, TriggerEveryAllocs: 500}},
		{name: "always", run: vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, ForceMarkingAlways: true, CheckInvariant: true}},
	}
}

// assertHorizonParity runs one build under every horizon configuration and
// quantum on the fused engine and on the compiled tier (threshold 2 and
// default), each against the switch interpreter — whose scheduler visits
// every quantum boundary — and demands identical Results. Permanent marking
// runs only at quanta of at least alwaysFrom: a cycle then finishes and
// restarts every few quanta with a full root scan and sweep each, which at
// quantum 1 costs a Table 1 workload the better part of a minute.
func assertHorizonParity(t *testing.T, name string, bd *pipeline.Build, quanta []int, alwaysFrom int) {
	for _, hc := range horizonConfigs() {
		for _, quantum := range quanta {
			if hc.run.ForceMarkingAlways && quantum < alwaysFrom {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/q%d", name, hc.name, quantum), func(t *testing.T) {
				cfg := hc.run
				cfg.Quantum = quantum
				sw := runEngine(t, bd, cfg, vm.EngineSwitch)
				assertIdentical(t, runEngine(t, bd, cfg, vm.EngineFused), sw, "fused", "switch")
				for _, threshold := range []int64{diffTierThreshold, vm.DefaultTierThreshold} {
					cfg.TierThreshold = threshold
					assertIdentical(t, runEngine(t, bd, cfg, vm.EngineCompiled), sw, "compiled", "switch")
				}
			})
		}
	}
}

// TestHorizonParityMatrix is the scheduling horizon's proof obligation: the
// decoded engines skip quantum boundaries nothing can observe, the switch
// interpreter visits them all, and every field of the Result — output, steps,
// GC cycles (so every cycle's start and finish step), final-pause work,
// allocation and sweep totals, per-site barrier counters — must agree in
// every cell, including the cells where a second thread or an active marker
// pins the horizon to one quantum.
func TestHorizonParityMatrix(t *testing.T) {
	analysis := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	quanta := []int{1, 3, 64, 100}
	for _, w := range workloads.All() {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: 100, Analysis: analysis})
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		assertHorizonParity(t, w.Name, bd, quanta, 64)
	}
	// Generated programs keep their mutual recursion and deep call chains as
	// real calls (limit 0), so coalesced turns cross many frame switches.
	for seed := int64(1); seed <= 4; seed++ {
		name := fmt.Sprintf("gen%d", seed)
		bd, err := pipeline.Compile(name, progen.Generate(seed, progen.CampaignConfig()), pipeline.Options{InlineLimit: 0, Analysis: analysis})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		assertHorizonParity(t, name, bd, quanta, 1)
	}
}

// horizonSpawnSrc spawns a worker from deep inside a turn that has been
// running alone for thousands of steps, at a step that is no multiple of any
// tested quantum; both threads then print in lockstep, so the interleaving of
// the output is the record of where the child's first quantum started. The
// worker finishes first and main runs on alone — coalescing resumes — before
// a second worker is spawned from inside that turn.
const horizonSpawnSrc = `
class W {
    int id;
    int n;
    W(int i, int k) { id = i; n = k; }
    void run() {
        int i = 0;
        while (i < n) { print(id * 1000 + i); i = i + 1; }
    }
}
class Main {
    static int spin(int k) {
        int s = 0;
        int i = 0;
        while (i < k) { s = s + i % 7; i = i + 1; }
        return s;
    }
    static void main() {
        print(Main.spin(2501));
        W a = new W(1, 40);
        spawn a.run();
        int i = 0;
        while (i < 60) { print(i); i = i + 1; }
        print(Main.spin(3001));
        W b = new W(2, 25);
        spawn b.run();
        i = 0;
        while (i < 50) { print(500 + i); i = i + 1; }
        print(Main.spin(1500));
    }
}
`

// TestHorizonSpawnAndSurvivor pins the spawn clamp (a spawn inside a
// coalesced turn ends that turn at the quantum in progress) and the return to
// coalescing when a thread finishes and leaves one survivor, at call-heavy
// and inlined builds alike.
func TestHorizonSpawnAndSurvivor(t *testing.T) {
	for _, limit := range []int{0, 100} {
		bd, err := pipeline.Compile("spawn", horizonSpawnSrc, pipeline.Options{InlineLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		var base []int64
		for _, quantum := range []int{3, 64} {
			sw := runEngine(t, bd, vm.Config{Quantum: quantum}, vm.EngineSwitch)
			if quantum == 3 {
				base = sw.Output
			} else if reflect.DeepEqual(base, sw.Output) {
				t.Fatalf("limit %d: output interleaves identically at quanta 3 and 64; the program does not observe the schedule", limit)
			}
		}
		assertHorizonParity(t, fmt.Sprintf("spawn/inline%d", limit), bd, []int{3, 64}, 1)
	}
}

// TestFirstImageUseIsRaceFree: VMs built concurrently on one cached Build
// decode its images concurrently, keep one of each and run it. Eight
// goroutines each run every engine × flavor cell, starting at different
// cells so that first uses collide, and every result equals the sequential
// run of a build that no other VM shares. Run it under -race.
func TestFirstImageUseIsRaceFree(t *testing.T) {
	opts := pipeline.Options{
		Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		Cache:    pipeline.NewCache(4),
	}
	var cells []vm.Config
	for _, eng := range []vm.Engine{vm.EngineFused, vm.EngineCompiled} {
		for _, mode := range []satb.BarrierMode{satb.ModeConditional, satb.ModeHybrid, satb.ModeDijkstra} {
			cells = append(cells, vm.Config{Engine: eng, Barrier: mode, GC: vm.GCSATB, TriggerEveryAllocs: 64})
		}
	}
	solo := opts
	solo.NoCache = true
	ref, err := pipeline.Compile("tiertest", tierTestSource, solo)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*vm.Result, len(cells))
	for i, cfg := range cells {
		want[i] = runEngine(t, ref, cfg, cfg.Engine)
	}

	if _, err := pipeline.Compile("tiertest", tierTestSource, opts); err != nil {
		t.Fatal(err)
	}
	shared, err := pipeline.Compile("tiertest", tierTestSource, opts)
	if err != nil || !shared.CacheHit {
		t.Fatalf("second compile: hit %v, err %v", shared != nil && shared.CacheHit, err)
	}
	const goroutines = 8
	got := make([][]*vm.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*vm.Result, len(cells))
			for k := range cells {
				i := (g + k) % len(cells)
				cfg := cells[i]
				if cfg.Engine == vm.EngineCompiled {
					cfg.TierThreshold = diffTierThreshold
				}
				if got[g][i], errs[g] = shared.Run(cfg); errs[g] != nil {
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
		for i, cfg := range cells {
			name := cfg.Engine.String()
			assertIdentical(t, got[g][i], want[i], name, name)
		}
	}
}
