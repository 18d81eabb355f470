package vm_test

// The engine-parity table: one declared list of cells, each a program ×
// build options (inline limit, analysis mode and extensions,
// interprocedural summaries) × runtime config (flavor, collector, trigger,
// quantum, oracle, invariant, forced marking) × the compiled tier's
// thresholds. Every cell runs its build once on the switch interpreter —
// the reference, which visits every quantum boundary — and the fused engine
// and the compiled tier at each threshold must reproduce that Result
// exactly (assertIdentical). What a cell's config promises beyond parity is
// checked on every cell alike (checkCell).
//
// The table has five sources, and each source's cells run under one
// top-level test (runParity): the Table 1 workloads across barrier modes,
// analyses, inline limits and the oracle; the newer flavors with every
// safe collector; adversarial quanta; the scheduling horizon's collector
// situations and quanta; and satbvm's defaults in three lanes. The first
// four keep the subtest names they had as separate tables, so an old log's
// cell name still finds its cell; the lanes are named by their config.
// TestEngineParityCensus pins the cell count of each source.
//
// Forced deopt, step budgets, spawn clamps and concurrent first use test
// hooks and budgets rather than cells, and keep their own tests below the
// table.

import (
	"fmt"
	"maps"
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

// parityCell is one cell of the table. test is the top-level test that runs
// it; run leaves Engine and TierThreshold unset.
type parityCell struct {
	test, name string
	prog, src  string
	limit      int
	analysis   core.Options
	run        vm.Config
	thresholds []int64
}

// build names the cell's program and compile options.
func (c parityCell) build() string { return fmt.Sprintf("%s %d %+v", c.prog, c.limit, c.analysis) }

// diffTierThreshold tiers every method up almost immediately so the
// compiled tier, not its fused fallback, is what a cell exercises.
const diffTierThreshold = 2

// fullAnalysis is mode A with both §4.3 extensions.
var fullAnalysis = core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}

// diffConfigs are the compile+run pairs of TestEngineDifferentialWorkloads.
var diffConfigs = []struct {
	name     string
	analysis core.Options
	run      vm.Config
}{
	{name: "nobarrier", run: vm.Config{Barrier: satb.ModeNoBarrier}},
	{name: "alwayslog", run: vm.Config{Barrier: satb.ModeAlwaysLog}},
	{name: "alwayslog-elim", analysis: fullAnalysis, run: vm.Config{Barrier: satb.ModeAlwaysLog}},
	{name: "conditional-gc", analysis: fullAnalysis, run: vm.Config{
		Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 64, CheckInvariant: true}},
}

// diffInlineLimits are the inline limits the cells compile at. The tier's
// translation depends on what the inliner leaves behind: at limit 100
// nearly every callee is gone, at 25 the mid-size ones remain, and at 0 every
// call and return point is a real frame switch (loop heads as method entries
// and as return points — the shapes the chain's entry tables must get right).
var diffInlineLimits = []int{100, 25, 0}

// horizonConfigs are the collector situations the scheduling horizon
// distinguishes: nothing to observe (GCNone), an idle marker whose trigger is
// far away, one whose trigger is no multiple of the quantum, one whose trigger
// is nearer than a quantum, a second collector, and permanent marking (the
// horizon must stay at one quantum throughout).
var horizonConfigs = []struct {
	name string
	run  vm.Config
}{
	{"none", vm.Config{Barrier: satb.ModeConditional}},
	{"satb1000", vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 1000, CheckInvariant: true}},
	{"satb129", vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 129, CheckInvariant: true}},
	{"satb40", vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 40, CheckInvariant: true}},
	{"inc500", vm.Config{Barrier: satb.ModeCardMarking, GC: vm.GCIncremental, TriggerEveryAllocs: 500}},
	{"always", vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB, ForceMarkingAlways: true, CheckInvariant: true}},
}

// horizonCells are the horizon configs at every quantum, each compiled at
// threshold 2 and at the default. Permanent marking runs only at quanta of
// at least alwaysFrom: a cycle then finishes and restarts every few quanta
// with a full root scan and sweep each, which at quantum 1 costs a Table 1
// workload the better part of a minute.
func horizonCells(name string, quanta []int, alwaysFrom int) []parityCell {
	var cells []parityCell
	for _, hc := range horizonConfigs {
		for _, quantum := range quanta {
			if hc.run.ForceMarkingAlways && quantum < alwaysFrom {
				continue
			}
			run := hc.run
			run.Quantum = quantum
			cells = append(cells, parityCell{
				name:       fmt.Sprintf("%s/%s/q%d", name, hc.name, quantum),
				run:        run,
				thresholds: []int64{diffTierThreshold, vm.DefaultTierThreshold},
			})
		}
	}
	return cells
}

// pairing is a barrier flavor and the collector it runs with.
type pairing struct {
	mode satb.BarrierMode
	gc   vm.GCKind
}

// parityTable declares every cell, source by source; TestEngineParityCensus
// pins how many each source holds.
func parityTable() []parityCell {
	var cells []parityCell
	add := func(c parityCell, test, prog, src string, limit int, analysis core.Options) {
		c.test, c.prog, c.src, c.limit, c.analysis = test, prog, src, limit, analysis
		cells = append(cells, c)
	}
	oracleSuffix := map[bool]string{false: "", true: "/oracle"}

	// The six Table 1 workloads across inline limits × barrier modes ×
	// analysis configurations × oracle on/off. Under the oracle the tier
	// disables itself and the compiled run degrades to fused dispatch.
	for _, w := range workloads.All() {
		for _, dc := range diffConfigs {
			for _, limit := range diffInlineLimits {
				for _, oracle := range []bool{false, true} {
					c := parityCell{run: dc.run, thresholds: []int64{diffTierThreshold}}
					c.run.CheckElisions = oracle
					c.name = w.Name + "/" + dc.name + oracleSuffix[oracle]
					if limit != 100 {
						c.name = fmt.Sprintf("%s/%s/inline%d%s", w.Name, dc.name, limit, oracleSuffix[oracle])
					}
					add(c, "TestEngineDifferentialWorkloads", w.Name, w.Source, limit, dc.analysis)
				}
			}
		}
	}

	// The yuasa, dijkstra and hybrid flavors with every safe collector ×
	// oracle on/off, over the full analysis. Verdicts are projected through
	// each flavor per engine (at decode for fused and compiled, per store
	// for switch), so a projection bug in any one path cannot hide.
	flavors := []pairing{
		{satb.ModeYuasa, vm.GCNone}, {satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCNone}, {satb.ModeDijkstra, vm.GCSATB}, {satb.ModeDijkstra, vm.GCIncremental},
		{satb.ModeHybrid, vm.GCNone}, {satb.ModeHybrid, vm.GCSATB}, {satb.ModeHybrid, vm.GCIncremental},
	}
	for _, w := range workloads.All() {
		for _, f := range flavors {
			for _, oracle := range []bool{false, true} {
				// The invariant is armed only on snapshot-sound flavors
				// (yuasa, hybrid), and is a no-op with GC off.
				add(parityCell{
					name: w.Name + "/" + f.mode.String() + "/" + f.gc.String() + oracleSuffix[oracle],
					run: vm.Config{Barrier: f.mode, GC: f.gc, TriggerEveryAllocs: 64,
						CheckInvariant: true, CheckElisions: oracle},
					thresholds: []int64{diffTierThreshold},
				}, "TestEngineDifferentialFlavorMatrix", w.Name, w.Source, 100, fullAnalysis)
			}
		}
	}

	// Tiny odd quanta force fused superinstructions and whole compiled
	// segments to straddle quantum ends and fall back to the
	// per-instruction path mid-sequence. At quantum 1 no compiled segment
	// longer than one instruction fits, so the compiled engine runs almost
	// entirely on its deopt path.
	jbb, err := workloads.Get("jbb")
	if err != nil {
		panic(err)
	}
	for _, limit := range diffInlineLimits {
		for _, quantum := range []int{1, 2, 3, 5, 7, 13, 64} {
			add(parityCell{
				name: "quantum",
				run: vm.Config{Barrier: satb.ModeConditional, GC: vm.GCSATB,
					TriggerEveryAllocs: 32, Quantum: quantum},
				thresholds: []int64{diffTierThreshold},
			}, "TestEngineDifferentialQuantumBoundaries", jbb.Name, jbb.Source, limit,
				core.Options{Mode: core.ModeFieldArray, NullOrSame: true})
		}
	}

	// The scheduling horizon's proof obligation: the decoded engines skip
	// quantum boundaries nothing can observe, the switch interpreter visits
	// them all, and every cell must agree, including those where a second
	// thread or an active marker pins the horizon to one quantum. Generated
	// programs keep their mutual recursion and deep call chains as real
	// calls (limit 0), so coalesced turns cross many frame switches.
	quanta := []int{1, 3, 64, 100}
	for _, w := range workloads.All() {
		for _, c := range horizonCells(w.Name, quanta, 64) {
			add(c, "TestHorizonParityMatrix", w.Name, w.Source, 100, fullAnalysis)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		name := fmt.Sprintf("gen%d", seed)
		src := progen.Generate(seed, progen.CampaignConfig())
		for _, c := range horizonCells(name, quanta, 1) {
			add(c, "TestHorizonParityMatrix", name, src, 0, fullAnalysis)
		}
	}

	// satbvm's defaults (mode A, no null-or-same, trigger 200, default
	// quantum and threshold) over every flavor with its natural collector,
	// in three lanes: limit 100; limit 25, whose mid-size callees stay real
	// calls whose call and return points land on loop heads; and limit 0
	// with summaries, so that a summary soundness bug that bites one engine
	// or flavor shows up as a divergence.
	lanes := []struct {
		limit     int
		interproc bool
	}{{100, false}, {0, true}, {25, false}}
	natural := []pairing{
		{satb.ModeConditional, vm.GCSATB}, {satb.ModeYuasa, vm.GCSATB}, {satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeHybrid, vm.GCSATB}, {satb.ModeCardMarking, vm.GCIncremental},
	}
	for _, l := range lanes {
		lane := fmt.Sprintf("inline%d", l.limit)
		if l.interproc {
			lane += "-interproc"
		}
		for _, w := range workloads.All() {
			for _, f := range natural {
				add(parityCell{
					name:       w.Name + "/" + lane + "/" + f.mode.String() + "/" + f.gc.String(),
					run:        vm.Config{Barrier: f.mode, GC: f.gc, TriggerEveryAllocs: 200},
					thresholds: []int64{vm.DefaultTierThreshold},
				}, "TestEngineParityLanes", w.Name, w.Source, l.limit,
					core.Options{Mode: core.ModeFieldArray, Interprocedural: l.interproc})
			}
		}
	}
	return cells
}

// TestEngineParityCensus pins the table's cells by source, and that no two
// cells are the same cell.
func TestEngineParityCensus(t *testing.T) {
	want := map[string]int{
		"TestEngineDifferentialWorkloads":         144,
		"TestEngineDifferentialFlavorMatrix":      96,
		"TestEngineDifferentialQuantumBoundaries": 21,
		"TestHorizonParityMatrix":                 228,
		"TestEngineParityLanes":                   90,
	}
	got := map[string]int{}
	seen := map[string]string{}
	for _, c := range parityTable() {
		got[c.test]++
		key := fmt.Sprintf("%s %+v %v", c.build(), c.run, c.thresholds)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s/%s repeats %s", c.test, c.name, prev)
		}
		seen[key] = c.test + "/" + c.name
	}
	if !maps.Equal(got, want) {
		t.Errorf("cells by source: %v, want %v", got, want)
	}
}

// runParity runs the table's cells of the calling top-level test, each as
// a parallel subtest, compiling each distinct build once.
func runParity(t *testing.T) {
	builds := map[string]*pipeline.Build{}
	for _, c := range parityTable() {
		if c.test != t.Name() {
			continue
		}
		key := c.build()
		bd := builds[key]
		if bd == nil {
			var err error
			bd, err = pipeline.Compile(c.prog, c.src, pipeline.Options{InlineLimit: c.limit, Analysis: c.analysis})
			if err != nil {
				t.Fatalf("%s: compile: %v", key, err)
			}
			builds[key] = bd
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkCell(t, bd, c)
		})
	}
}

func TestEngineDifferentialWorkloads(t *testing.T)         { runParity(t) }
func TestEngineDifferentialFlavorMatrix(t *testing.T)      { runParity(t) }
func TestEngineDifferentialQuantumBoundaries(t *testing.T) { runParity(t) }
func TestHorizonParityMatrix(t *testing.T)                 { runParity(t) }
func TestEngineParityLanes(t *testing.T)                   { runParity(t) }

// checkCell runs cell c of build bd on the switch interpreter once, holds
// the fused engine and the compiled tier at each threshold to it, and
// checks what the cell's config promises beyond parity: the oracle turns
// the tier off, a threshold of 2 at the default quantum tiers up without it
// (gen1 of the horizon cells runs too briefly to), the oracle validated
// elided stores exactly when some ran, no site's elision is unsound under
// the flavor, and dijkstra projected every verdict away.
func checkCell(t *testing.T, bd *pipeline.Build, c parityCell) {
	t.Helper()
	sw := runEngine(t, bd, c.run, vm.EngineSwitch)
	assertIdentical(t, runEngine(t, bd, c.run, vm.EngineFused), sw, "fused", "switch")
	for _, threshold := range c.thresholds {
		cfg := c.run
		cfg.TierThreshold = threshold
		comp := runEngine(t, bd, cfg, vm.EngineCompiled)
		assertIdentical(t, comp, sw, "compiled", "switch")
		if cfg.CheckElisions && (comp.TierUps != 0 || comp.TierSegExecs != 0) {
			t.Errorf("oracle run tiered up (ups=%d segExecs=%d); the tier must disable itself under the oracle",
				comp.TierUps, comp.TierSegExecs)
		} else if !cfg.CheckElisions && threshold == diffTierThreshold && cfg.Quantum == 0 && (comp.TierUps == 0 || comp.TierSegExecs == 0) {
			t.Errorf("compiled run at threshold %d: %d methods tiered up, %d segments executed; want both > 0",
				threshold, comp.TierUps, comp.TierSegExecs)
		}
	}
	s := sw.Counters.Summarize()
	elided := s.ElidedExecs + s.NullOrSameExecs + s.RearrangeExecs
	if len(s.UnsoundSites) > 0 {
		t.Errorf("unsound sites under %s: %v", c.run.Barrier, s.UnsoundSites)
	}
	dijkstra := c.run.Barrier == satb.ModeDijkstra
	if dijkstra && elided != 0 {
		t.Errorf("dijkstra executed elided sites (prenull=%d nos=%d rearr=%d), projection leaked",
			s.ElidedExecs, s.NullOrSameExecs, s.RearrangeExecs)
	}
	// Below limit 100 a workload may keep every barrier (jess and jack do at
	// 0: nothing is provably pre-null without their constructors inlined).
	if c.run.CheckElisions {
		want := elided > 0 || c.limit == 100 && c.analysis.Mode != core.ModeNone && !dijkstra
		if got := sw.ElisionChecks > 0; got != want {
			t.Errorf("oracle validated %d elided stores (%d executed), want validation %v", sw.ElisionChecks, elided, want)
		}
	}
}

// runEngine executes one build on one engine. The switch interpreter
// shares the other engines' threads, frames and scheduler but must stay an
// independent reference: it visits every quantum boundary and takes a
// fresh frame per call, so a switch run skips no boundary and recycles no
// frame.
func runEngine(t *testing.T, bd *pipeline.Build, cfg vm.Config, eng vm.Engine) *vm.Result {
	t.Helper()
	cfg.Engine = eng
	if eng == vm.EngineCompiled && cfg.TierThreshold == 0 {
		cfg.TierThreshold = diffTierThreshold
	}
	m := vm.New(bd.Program, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("engine %v: %v", eng, err)
	}
	if eng == vm.EngineSwitch {
		if n := m.BoundariesSkipped(); n != 0 {
			t.Errorf("switch run skipped %d quantum boundaries, want 0", n)
		}
		if n := m.FramesRecycled(); n != 0 {
			t.Errorf("switch run recycled %d frames, want 0", n)
		}
	}
	return res
}

// assertIdentical compares every semantic field of two Results: Engine and
// the tier counters are the informational fields that differ by design.
// Every field report.NewRunSummary reads is either compared here directly
// (Flavor among them) or derived from Counters, which must match to the last
// per-site statistic, including which sites exist at all (site stats are
// created lazily on first execution in every engine).
func assertIdentical(t *testing.T, a, b *vm.Result, an, bn string) {
	t.Helper()
	if a.Engine != an || b.Engine != bn {
		t.Fatalf("engine labels: got %q/%q, want %q/%q", a.Engine, b.Engine, an, bn)
	}
	if sa, sb := scalars(a), scalars(b); sa != sb {
		t.Errorf("Results differ:\n%s %+v\n%s %+v", an, sa, bn, sb)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("Output differs: %s %d values, %s %d values", an, len(a.Output), bn, len(b.Output))
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		as, bs := a.Counters.Summarize(), b.Counters.Summarize()
		t.Errorf("Counters differ: %s {cost=%d logged=%d execs=%d sites=%d} %s {cost=%d logged=%d execs=%d sites=%d}",
			an, a.Counters.Cost, a.Counters.Logged, as.TotalExecs, len(a.Counters.Sites()),
			bn, b.Counters.Cost, b.Counters.Logged, bs.TotalExecs, len(b.Counters.Sites()))
	}
}

// resultScalars are the scalar semantic fields of a Result.
type resultScalars struct {
	Flavor                 string
	Steps, Allocated       int64
	Cycles, FinalPauseWork int
	Swept                  int
	ElisionChecks          int64
	TotalCost              uint64
}

func scalars(r *vm.Result) resultScalars {
	return resultScalars{r.Flavor, r.Steps, r.Allocated, r.Cycles, r.FinalPauseWork, r.Swept, r.ElisionChecks, r.TotalCost()}
}

// assertHorizonParity checks the horizon cells of one build, named after
// name, as subtests of t.
func assertHorizonParity(t *testing.T, name string, bd *pipeline.Build, quanta []int, alwaysFrom int) {
	for _, c := range horizonCells(name, quanta, alwaysFrom) {
		t.Run(c.name, func(t *testing.T) { checkCell(t, bd, c) })
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
