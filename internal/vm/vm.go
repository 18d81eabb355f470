// Package vm interprets bytecode programs over the heap, executing SATB
// (or card-marking) write barriers at reference stores and driving the
// concurrent collector in deterministic steps. Threads created by spawn
// are scheduled cooperatively (fixed round-robin quanta) so that every
// run — including the mutator/collector interleaving — is reproducible.
package vm

import (
	"context"
	"errors"
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/gc"
	"satbelim/internal/heap"
	"satbelim/internal/num"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
)

// GCKind selects the collector.
type GCKind int

const (
	// GCNone runs without a collector (barriers may still execute,
	// feeding a no-op logger).
	GCNone GCKind = iota
	// GCSATB runs the snapshot-at-the-beginning concurrent marker.
	GCSATB
	// GCIncremental runs the mostly-parallel incremental-update marker.
	GCIncremental
)

// gcNames is the collector vocabulary of every CLI, satbd request and
// report, indexed by GCKind.
var gcNames = [...]string{GCNone: "none", GCSATB: "satb", GCIncremental: "inc"}

// String is the collector's name, the one ParseGCKind reads.
func (k GCKind) String() string {
	if k < 0 || int(k) >= len(gcNames) {
		return fmt.Sprintf("GCKind(%d)", int(k))
	}
	return gcNames[k]
}

// Engine selects the execution engine.
type Engine int

const (
	// EngineFused (the default) runs the pre-decoded execution engine:
	// bytecode is translated, once per verdict table and projection and
	// shared by every VM of it, into a dense internal form
	// with resolved operands (field offsets, call targets, site records),
	// hot instruction sequences are fused into superinstructions, and
	// frames are pooled. Results are bit-identical to EngineSwitch, and a
	// program that is not runnable fails on every engine alike (see New).
	EngineFused Engine = iota
	// EngineSwitch is the reference interpreter: a giant switch over the
	// raw bytecode, kept as the differential-testing baseline.
	EngineSwitch
	// EngineCompiled is the tiered execution engine: methods start on
	// fused dispatch and, once their exec counter (entries + loop
	// back-edges) crosses Config.TierThreshold, are translated to
	// closure-threaded compiled code — an array of per-segment
	// continuations with branch targets resolved to segment indices,
	// fused superinstructions preserved, and elided stores compiled to
	// raw writes with no barrier-test residue. Scheduler-quantum and
	// step-budget checks happen only at segment boundaries (loop
	// back-edges, branches, calls); a segment that does not fit the
	// remaining quantum or budget runs compiled up to the furthest entry
	// point that does and leaves only the tail to fused dispatch, so
	// thread interleaving and results stay bit-identical to the other
	// engines. The runtime elision oracle disables tier-up entirely
	// (oracle runs execute on fused dispatch with identical semantics).
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineSwitch:
		return "switch"
	case EngineCompiled:
		return "compiled"
	}
	return "fused"
}

// ParseEngine parses an engine name ("fused", "switch", or "compiled").
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "fused", "":
		return EngineFused, nil
	case "switch":
		return EngineSwitch, nil
	case "compiled":
		return EngineCompiled, nil
	}
	return EngineFused, fmt.Errorf("unknown engine %q (want fused, switch, or compiled)", s)
}

// ParseGCKind parses a collector name ("none", "satb", or "inc"). All
// CLIs share it so the flag vocabulary cannot drift.
func ParseGCKind(s string) (GCKind, error) {
	if s == "" {
		return GCNone, nil
	}
	for k, name := range gcNames {
		if s == name {
			return GCKind(k), nil
		}
	}
	return GCNone, fmt.Errorf("unknown gc %q (want none, satb, or inc)", s)
}

// Config controls one VM run.
type Config struct {
	Barrier satb.BarrierMode
	GC      GCKind
	// Engine selects the execution engine (default EngineFused).
	Engine Engine
	// TriggerEveryAllocs starts a marking cycle each time this many
	// allocations accumulate (0 = never).
	TriggerEveryAllocs int64
	// MarkStepBudget is the marking work granted per scheduler quantum.
	MarkStepBudget int
	// Quantum is the scheduler's granularity: threads rotate, the marker
	// steps, the allocation trigger is tested and cancellation is polled
	// only at multiples of Quantum instructions counted from the start of
	// a thread's turn. The switch interpreter visits every such boundary.
	// The decoded engines do not visit a boundary with no second live
	// thread, no marker that is marking or could be triggered there, and
	// — up to a fixed cap of about 2^16 instructions — no cancellation
	// poll; results are bit-identical to visiting them.
	Quantum int
	// MaxSteps bounds total executed instructions (0 = default bound).
	MaxSteps int64
	// CheckInvariant records a snapshot at each mark start and verifies
	// the SATB reachability invariant at each mark end. Armed only for
	// snapshot-sound barrier flavors (see satb.BarrierSpec.SnapshotSound):
	// an insertion-only barrier keeps live objects reachable but does not
	// maintain the mark-start snapshot, so the check would reject correct
	// runs.
	CheckInvariant bool
	// ForceMarkingAlways keeps a marking cycle permanently active
	// (starting a new cycle as soon as one finishes).
	ForceMarkingAlways bool
	// CheckElisions enables the runtime elision-soundness oracle: every
	// elided reference store asserts the analysis claim that justified
	// the elision (overwritten slot null / null-or-same, target object
	// still thread-local). A contradicted claim aborts the run with a
	// structured *SoundnessViolation instead of silently corrupting
	// marking.
	CheckElisions bool
	// TierThreshold is the hot-method exec count (method entries + loop
	// back-edges observed on fused dispatch) at which EngineCompiled
	// translates a method to closure-threaded compiled code (0 = default
	// 64). Ignored by the other engines.
	TierThreshold int64
}

// hooks are construction-time switches for tests only, kept off Config so
// that nothing that builds a Config — pipeline.Options.Runtime, the CLIs,
// the daemon — can reach them. New passes none; export_test.go exposes a
// constructor that sets them.
type hooks struct {
	// tierForceDeoptAfter, when > 0, abandons ALL compiled methods after
	// that many compiled-segment executions and permanently re-enters
	// fused dispatch (simulating tier invalidation). Results stay
	// bit-identical because fused dispatch is the tier's deopt target.
	tierForceDeoptAfter int64
	// forceRawElide bypasses the barrier flavor's soundness projection and
	// applies every analysis verdict as-is — deliberately unsound under
	// flavors whose spec rejects a verdict. The per-flavor oracle violation
	// tests use it to prove the oracle catches cross-flavor elisions. It
	// picks the image New runs, hence construction-time.
	forceRawElide bool
}

// Result summarizes a run.
type Result struct {
	Output   []int64
	Steps    int64 // executed instructions (base cost units)
	Counters *satb.Counters
	// Cycles is the number of completed marking cycles.
	Cycles int
	// FinalPauseWork sums the final-pause work of all cycles.
	FinalPauseWork int
	// Allocated counts heap allocations.
	Allocated int64
	// Swept counts objects reclaimed.
	Swept int
	// ElisionChecks counts elided-store executions validated by the
	// soundness oracle (0 unless Config.CheckElisions was set).
	ElisionChecks int64
	// Engine names the execution engine that produced the result
	// ("fused", "switch", or "compiled"); informational only, never part
	// of the semantics.
	Engine string
	// Flavor names the barrier flavor the run executed under
	// (satb.BarrierSpec.Name).
	Flavor string
	// TierUps counts methods translated to the compiled tier during this
	// run; TierDeopts counts fallbacks from compiled code to fused
	// dispatch (quantum-tail, step-budget, or forced deopts); TierSegExecs
	// counts compiled-segment dispatches. All zero unless EngineCompiled
	// was selected. Informational only — never part of the semantics, and
	// excluded from engine-parity comparisons (like Engine).
	TierUps      int
	TierDeopts   int64
	TierSegExecs int64
}

// TotalCost is the deterministic cost-model total: instructions executed
// plus barrier cost units (overflow-safe: saturates instead of wrapping).
func (r *Result) TotalCost() uint64 { return num.AddSat(num.U64(r.Steps), r.Counters.Cost) }

// RuntimeError is a VM execution failure with location.
type RuntimeError struct {
	Method string
	PC     int
	Line   int
	Msg    string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at %s pc %d (line %d): %s", e.Method, e.PC, e.Line, e.Msg)
}

type frame struct {
	m      *bytecode.Method
	num    int32 // m's method number
	body   *bytecode.Body
	pc     int
	locals []value
	stack  []value
}

type thread struct {
	id     int
	frames []*frame
	done   bool
	// span is the thread's observability lane span (inert when tracing
	// is disabled).
	span obs.Span
}

// VM is one interpreter instance.
type VM struct {
	prog *bytecode.Program
	// syms is what the switch interpreter reads its Bodies' numbers in.
	syms     *bytecode.Symbols
	cfg      Config
	hooks    hooks
	heap     *heap.Heap
	counters *satb.Counters
	marker   gc.Marker
	noplog   satb.NopLogger
	threads  []*thread
	output   []int64
	oracle   *oracle
	// err is why the program is not runnable, which Run reports before any
	// instruction.
	err error

	// spec is the resolved barrier-flavor descriptor for cfg.Barrier; all
	// engines consult it for costs and shading. proj is the verdicts it
	// lets the VM apply (every one under the forceRawElide hook). checkInv
	// is CheckInvariant gated on the flavor maintaining the snapshot at all.
	spec     *satb.BarrierSpec
	proj     projection
	checkInv bool
	// verdicts is the program's verdict table when the VM was made: what
	// it runs, whatever a re-analysis installs meanwhile.
	verdicts *bytecode.Verdicts

	// dprog is the program's image under proj (nil on the switch engine).
	// ms is this VM's state per method number; siteStats its counters per
	// site number, created on a site's first execution so that a
	// never-executed site leaves no trace (as in the reference engine).
	// fthreads are the decoded engines' threads.
	dprog     *dprogram
	ms        []mstate
	siteStats []*satb.SiteStats
	fthreads  []*fthread

	steps          int64
	maxSteps       int64
	allocSinceGC   int64
	rootBuf        []heap.Ref // reused by roots()
	cycles         int
	finalPauseWork int
	swept          int

	// fusedExecs counts superinstruction dispatches (fused engine only);
	// cycleSpan is the open observability span of the current marking
	// cycle (inert when tracing is disabled). Plain counters, never
	// synchronized: the VM runs on one goroutine.
	fusedExecs int64
	cycleSpan  obs.Span

	// schedTurns counts the turns the decoded engines' scheduler granted;
	// schedSkipped counts the quantum boundaries inside those turns that
	// were not visited because nothing could observe them (see horizon).
	// Published to the observability registry only.
	schedTurns   int64
	schedSkipped int64

	// Compiled-tier state (EngineCompiled only). tierThreshold is the
	// resolved hot counter; tierOff is set by a forced deopt and
	// permanently pins execution to fused dispatch; the counters feed
	// Result and the observability registry.
	tierThreshold int64
	tierOff       bool
	tierUps       int
	tierDeopts    int64
	tierSegExecs  int64
	// opEntered is the error-path side channel for compiled-segment step
	// accounting: when a compiled op fails it records how many base
	// instructions were entered within that op, so the segment runner can
	// charge exactly what the reference interpreter would have counted.
	opEntered int32

	// ctx/cancel carry RunContext's cancellation; cancel is nil for the
	// plain Run path, so the scheduler loop pays one nil check per
	// turn and nothing more.
	ctx    context.Context
	cancel <-chan struct{}
}

// New prepares a VM for the program.
func New(p *bytecode.Program, cfg Config) *VM { return newVM(p, cfg, hooks{}) }

func newVM(p *bytecode.Program, cfg Config, h hooks) *VM {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.MarkStepBudget <= 0 {
		cfg.MarkStepBudget = 32
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.TierThreshold <= 0 {
		cfg.TierThreshold = DefaultTierThreshold
	}
	v := &VM{
		prog:          p,
		cfg:           cfg,
		hooks:         h,
		heap:          heap.New(heap.NewLayout(p)),
		counters:      satb.NewCounters(),
		maxSteps:      cfg.MaxSteps,
		tierThreshold: cfg.TierThreshold,
		spec:          cfg.Barrier.Spec(),
		verdicts:      p.Verdicts(),
	}
	v.checkInv = cfg.CheckInvariant && v.spec.SnapshotSound
	v.proj = projectionOf(v.spec)
	if h.forceRawElide {
		v.proj = allVerdicts
	}
	switch cfg.GC {
	case GCSATB:
		v.marker = gc.NewSATB(v.heap)
	case GCIncremental:
		v.marker = gc.NewInc(v.heap)
	}
	if cfg.CheckElisions {
		v.oracle = newOracle(v.heap, v.spec)
	}
	if cfg.Engine == EngineSwitch {
		v.syms = p.Symbols()
		v.err = runnable(p)
	} else if d := imageOf(p, v.verdicts, v.proj); d.err != nil {
		v.err = d.err
	} else {
		v.dprog = d
		v.ms = make([]mstate, len(d.methods))
		v.siteStats = make([]*satb.SiteStats, len(d.sites))
	}
	return v
}

// runnable is the one definition of a program the VM runs: its bodies all
// pass the structural check and its Main names a static method with no
// parameters (bytecode.Program.Validate). Every engine reports the same
// error for any other program, before it runs an instruction: the switch
// interpreter checks once per VM, the decoded engines once per image.
func runnable(p *bytecode.Program) error {
	if p.Main == (bytecode.MethodRef{}) {
		return errors.New("vm: program has no main method")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("vm: %w", err)
	}
	return nil
}

// Heap exposes the heap (tests and tools). After Run only its statics are
// readable: every Ref reads as no object.
func (v *VM) Heap() *heap.Heap { return v.heap }

// logger returns the barrier sink.
func (v *VM) logger() satb.Logger {
	if v.marker != nil {
		return v.marker
	}
	return &v.noplog
}

// RunContext executes main to completion (all threads), aborting with an
// error when ctx is cancelled or its deadline passes. Cancellation is
// observed at scheduler-quantum boundaries — the same points where the
// collector steps and threads rotate — so the hot per-instruction loops stay
// untouched. The switch interpreter polls at every boundary; the decoded
// engines poll at the boundaries they visit, at most horizonSteps (2^16)
// instructions apart, a fraction of a millisecond. All engines return
// identical error text.
func (v *VM) RunContext(ctx context.Context) (*Result, error) {
	if ctx != nil && ctx.Done() != nil {
		v.ctx = ctx
		v.cancel = ctx.Done()
	}
	return v.Run()
}

// Run executes main to completion (all threads). The run ends the heap's
// life: its memory goes to the next VM's heap (heap.Release), and only the
// statics stay readable.
func (v *VM) Run() (*Result, error) {
	sp := obs.StartSpan("vm", "vm", "run")
	res, err := v.run()
	if sp.Recording() {
		sp.EndArgs(obs.KV{K: "engine", S: v.cfg.Engine.String()},
			obs.KV{K: "steps", V: v.steps},
			obs.KV{K: "cycles", V: int64(v.cycles)})
		v.publishObs(err == nil)
	}
	v.heap.Release()
	return res, err
}

func (v *VM) run() (*Result, error) {
	switch {
	case v.err != nil:
		return nil, v.err
	case v.dprog == nil:
		return v.runSwitch()
	case v.tierEnabled():
		return v.runDecoded(v.runTieredQuantum)
	}
	return v.runDecoded(v.runFusedQuantum)
}

// tierEnabled reports whether this run may tier methods up to compiled
// code. The runtime elision oracle instruments every elided store with
// per-object shadow checks the compiled store paths deliberately omit, so
// oracle runs stay on fused dispatch — the tier's deopt target — with
// identical semantics.
func (v *VM) tierEnabled() bool {
	return v.cfg.Engine == EngineCompiled && v.oracle == nil
}

// publishObs flushes the run's execution counters into the observability
// registry. Called once per run, only when tracing is enabled — the VM's
// hot loops carry no hooks at all, so the disabled path is untouched and
// the enabled path's overhead is O(sites), not O(instructions).
func (v *VM) publishObs(ok bool) {
	obs.Count("vm.runs", 1)
	obs.Count("vm.engine."+v.cfg.Engine.String(), 1)
	obs.Count("vm.steps", v.steps)
	obs.Count("vm.cycles", int64(v.cycles))
	obs.Count("vm.final_pause_work", int64(v.finalPauseWork))
	obs.Count("vm.allocated", v.heap.Allocated)
	obs.Count("vm.swept", int64(v.swept))
	obs.Count("vm.fused_execs", v.fusedExecs)
	if v.cfg.Engine == EngineCompiled {
		obs.Count("vm.tier.ups", int64(v.tierUps))
		obs.Count("vm.tier.deopts", v.tierDeopts)
		obs.Count("vm.tier.seg_execs", v.tierSegExecs)
	}
	if !ok {
		obs.Count("vm.failed_runs", 1)
	}
	if v.dprog != nil {
		recycles := int64(0)
		for i := range v.ms {
			recycles += v.ms[i].recycled
		}
		obs.Count("vm.frame_pool.recycles", recycles)
		obs.Count("vm.sched.turns", v.schedTurns)
		obs.Count("vm.sched.boundaries_skipped", v.schedSkipped)
	}
	if v.oracle != nil {
		obs.Count("vm.oracle.checks", v.oracle.checks)
	}
	obs.Count("vm.barrier.cost", int64(v.counters.Cost))
	obs.Count("vm.barrier.logged", int64(v.counters.Logged))
	obs.Count("vm.barrier.shaded", int64(v.counters.Shaded))
	obs.Count("vm.barrier.cards_dirtied", int64(v.counters.CardsDirtied))
	obs.Count("vm.barrier.static_execs", int64(v.counters.StaticExecs))
	// Per-site barrier hit/elide counts, keyed by method and pc so every
	// compiled store site's dynamic behaviour is inspectable.
	for _, s := range v.counters.Sites() {
		sum := s.Execs
		elided := uint64(0)
		if s.Elide != satb.ElideNone {
			elided = s.Execs
		}
		obs.Count(fmt.Sprintf("vm.site.%s.%d.execs", s.Key.Method, s.Key.PC), int64(sum))
		if elided > 0 {
			obs.Count(fmt.Sprintf("vm.site.%s.%d.elided", s.Key.Method, s.Key.PC), int64(elided))
		}
	}
	sum := v.counters.Summarize()
	obs.Count("vm.barrier.execs", int64(sum.TotalExecs))
	obs.Count("vm.barrier.elided_execs", int64(sum.ElidedExecs))
	obs.Count("vm.barrier.null_or_same_execs", int64(sum.NullOrSameExecs))
	obs.Count("vm.barrier.rearrange_execs", int64(sum.RearrangeExecs))
	// Per-flavor counters: one run uses one flavor, so these aggregate
	// cleanly across runs of different flavors (satbd /metrics, traced
	// multi-config benchmarks).
	obs.Count("vm.barrier.flavor."+v.spec.Name+".execs", int64(sum.TotalExecs))
	obs.Count("vm.barrier.flavor."+v.spec.Name+".logged", int64(v.counters.Logged))
	obs.Count("vm.barrier.flavor."+v.spec.Name+".shaded", int64(v.counters.Shaded))
}

// threadSpan opens a lane span covering one VM thread's lifetime (inert
// when tracing is disabled; the Enabled guard keeps the lane-name format
// off the disabled path).
func threadSpan(id int) obs.Span {
	if !obs.Enabled() {
		return obs.Span{}
	}
	return obs.StartSpan(fmt.Sprintf("vm/thread%d", id), "vm", "thread")
}

// runSwitch executes the program on the reference switch interpreter.
func (v *VM) runSwitch() (*Result, error) {
	main := v.newFrame(int32(v.syms.MethodNum(v.prog.Main)))
	v.threads = []*thread{{frames: []*frame{main}, span: threadSpan(0)}}
	if v.cfg.ForceMarkingAlways && v.marker != nil {
		v.startCycle()
	}

	for {
		live := 0
		for _, t := range v.threads {
			if !t.done {
				live++
			}
		}
		if live == 0 {
			break
		}
		for _, t := range v.threads {
			if t.done {
				continue
			}
			if err := v.cancelled(); err != nil {
				return nil, err
			}
			if err := v.runQuantum(t); err != nil {
				return nil, err
			}
			v.gcTick()
		}
	}
	// Wind down any active cycle.
	if v.marker != nil && v.marker.MarkingActive() {
		v.finishCycle()
	}
	return v.result(), nil
}

// result assembles the Result shared by all three engines.
func (v *VM) result() *Result {
	res := &Result{
		Output:         v.output,
		Steps:          v.steps,
		Counters:       v.counters,
		Cycles:         v.cycles,
		FinalPauseWork: v.finalPauseWork,
		Allocated:      v.heap.Allocated,
		Swept:          v.swept,
		Engine:         v.cfg.Engine.String(),
		Flavor:         v.spec.Name,
		TierUps:        v.tierUps,
		TierDeopts:     v.tierDeopts,
		TierSegExecs:   v.tierSegExecs,
	}
	if v.oracle != nil {
		res.ElisionChecks = v.oracle.checks
	}
	return res
}

// newFrame returns a frame of method number n for the switch interpreter.
func (v *VM) newFrame(n int32) *frame {
	m := v.syms.Methods[n]
	return &frame{m: m, num: n, body: v.prog.Body(int(n)), locals: make([]value, m.NumSlots()), stack: make([]value, 0, m.MaxStack+4)}
}

// roots collects the current GC roots: every reference in every thread's
// frames, plus static fields. Both engines contribute in the same order
// (threads, frames bottom-up, locals by slot, then stack bottom-up) so
// the deterministic marker sees an identical work queue. The slice is the
// VM's one root buffer, valid until the next call; markers do not keep it.
func (v *VM) roots() []heap.Ref {
	out := v.rootBuf[:0]
	for _, t := range v.threads {
		for _, f := range t.frames {
			for _, val := range f.locals {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
			for _, val := range f.stack {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
		}
	}
	for _, t := range v.fthreads {
		for _, f := range t.frames {
			for _, val := range f.locals {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
			for _, val := range f.stack[:f.sp] {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
		}
	}
	v.rootBuf = v.heap.AppendStaticRoots(out)
	return v.rootBuf
}

// startCycle begins a marking cycle.
func (v *VM) startCycle() {
	v.cycleSpan = obs.StartSpan("vm/gc", "gc", "mark-cycle")
	v.marker.Start(v.roots(), v.checkInv)
	v.allocSinceGC = 0
}

// finishCycle completes the cycle, checks the invariant, and sweeps.
func (v *VM) finishCycle() {
	v.finalPauseWork += v.marker.Finish(v.roots())
	v.cycles++
	if v.checkInv {
		if m, ok := v.marker.(*gc.SATBMarker); ok {
			if err := m.CheckSnapshotInvariant(); err != nil {
				panic(err) // soundness bug: tests convert via recover
			}
		}
	}
	swept := v.heap.Sweep()
	v.swept += swept
	if v.cycleSpan.Recording() {
		cs := v.marker.Stats()
		v.cycleSpan.EndArgs(
			obs.KV{K: "marked", V: int64(cs.Marked)},
			obs.KV{K: "mark_steps", V: int64(cs.Steps)},
			obs.KV{K: "final_pause_work", V: int64(cs.FinalPauseWork)},
			obs.KV{K: "log_entries", V: int64(cs.LogEntries)},
			obs.KV{K: "cards_seen", V: int64(cs.CardsSeen)},
			obs.KV{K: "retraces", V: int64(cs.Retraces)},
			obs.KV{K: "swept", V: int64(swept)},
		)
		v.cycleSpan = obs.Span{}
		obs.Count("gc.cycles", 1)
		obs.Count("gc.marked", int64(cs.Marked))
		obs.Count("gc.log_entries", int64(cs.LogEntries))
		obs.Count("gc.final_pause_work", int64(cs.FinalPauseWork))
	}
}

// cancelled polls the RunContext cancellation channel. Nil-check only on
// the plain Run path; a non-blocking select per scheduler quantum when a
// cancellable context was supplied.
func (v *VM) cancelled() error {
	if v.cancel == nil {
		return nil
	}
	select {
	case <-v.cancel:
		return fmt.Errorf("vm: run cancelled: %w", v.ctx.Err())
	default:
		return nil
	}
}

// gcTick advances the collector after each quantum.
func (v *VM) gcTick() {
	if v.marker == nil {
		return
	}
	if v.marker.MarkingActive() {
		if v.marker.Step(v.cfg.MarkStepBudget) {
			v.finishCycle()
			if v.cfg.ForceMarkingAlways {
				v.startCycle()
			}
		}
		return
	}
	if v.cfg.ForceMarkingAlways {
		v.startCycle()
		return
	}
	if v.cfg.TriggerEveryAllocs > 0 && v.allocSinceGC >= v.cfg.TriggerEveryAllocs {
		v.startCycle()
	}
}

func (v *VM) errf(f *frame, format string, args ...any) error {
	return &RuntimeError{Method: f.m.QualifiedName(), PC: f.pc, Line: int(f.m.Code[f.pc].Line), Msg: fmt.Sprintf(format, args...)}
}

// runQuantum executes up to Quantum instructions on one thread.
func (v *VM) runQuantum(t *thread) error {
	for i := 0; i < v.cfg.Quantum; i++ {
		if len(t.frames) == 0 {
			t.done = true
			t.span.End()
			return nil
		}
		if v.steps >= v.maxSteps {
			return fmt.Errorf("vm: instruction budget exhausted (%d)", v.maxSteps)
		}
		if err := v.step(t); err != nil {
			return err
		}
	}
	return nil
}

// step executes one instruction of the thread's top frame.
func (v *VM) step(t *thread) error {
	f := t.frames[len(t.frames)-1]
	in := &f.m.Code[f.pc]
	v.steps++

	push := func(val value) { f.stack = append(f.stack, val) }
	pop := func() value {
		val := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return val
	}

	switch in.Op {
	case bytecode.OpNop:
	case bytecode.OpConst, bytecode.OpConstBool:
		push(intVal(in.A))
	case bytecode.OpConstNull:
		push(nullVal())
	case bytecode.OpLoad:
		push(f.locals[in.A])
	case bytecode.OpStore:
		f.locals[in.A] = pop()
	case bytecode.OpDup:
		push(f.stack[len(f.stack)-1])
	case bytecode.OpPop:
		pop()
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem:
		y, x := pop().I, pop().I
		var r int64
		switch in.Op {
		case bytecode.OpAdd:
			r = x + y
		case bytecode.OpSub:
			r = x - y
		case bytecode.OpMul:
			r = x * y
		case bytecode.OpDiv:
			if y == 0 {
				return v.errf(f, "division by zero")
			}
			r = x / y
		case bytecode.OpRem:
			if y == 0 {
				return v.errf(f, "division by zero")
			}
			r = x % y
		}
		push(intVal(r))
	case bytecode.OpNeg:
		push(intVal(-pop().I))
	case bytecode.OpAnd:
		y, x := pop().I, pop().I
		push(intVal(x & y))
	case bytecode.OpOr:
		y, x := pop().I, pop().I
		push(intVal(x | y))
	case bytecode.OpNot:
		push(intVal(1 - pop().I))
	case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
		bytecode.OpCmpGT, bytecode.OpCmpGE:
		y, x := pop().I, pop().I
		var b bool
		switch in.Op {
		case bytecode.OpCmpEQ:
			b = x == y
		case bytecode.OpCmpNE:
			b = x != y
		case bytecode.OpCmpLT:
			b = x < y
		case bytecode.OpCmpLE:
			b = x <= y
		case bytecode.OpCmpGT:
			b = x > y
		case bytecode.OpCmpGE:
			b = x >= y
		}
		push(intVal(b2i(b)))
	case bytecode.OpRefEQ:
		y, x := pop().R, pop().R
		push(intVal(b2i(x == y)))
	case bytecode.OpRefNE:
		y, x := pop().R, pop().R
		push(intVal(b2i(x != y)))

	case bytecode.OpGoto:
		f.pc = int(in.A)
		return nil
	case bytecode.OpIfTrue:
		if pop().I != 0 {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfFalse:
		if pop().I == 0 {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfNull:
		if pop().R == heap.Null {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfNonNull:
		if pop().R != heap.Null {
			f.pc = int(in.A)
			return nil
		}

	case bytecode.OpGetField:
		obj := pop()
		fs := &v.syms.Fields[f.body.FieldAt[f.pc]]
		p := v.heap.FieldSlot(obj.R, int32(fs.Slot))
		if p == nil {
			return v.errf(f, "%s", v.heapFault(readField, obj.R, 0, &fs.Ref))
		}
		push(load(*p, fs.IsRef))
	case bytecode.OpPutField:
		val := pop()
		obj := pop()
		fs := &v.syms.Fields[f.body.FieldAt[f.pc]]
		p := v.heap.FieldSlot(obj.R, int32(fs.Slot))
		if p == nil {
			return v.errf(f, "%s", v.heapFault(writeField, obj.R, 0, &fs.Ref))
		}
		old := heap.Ref(*p)
		*p = word(val, fs.IsRef)
		if fs.IsRef {
			elide := v.proj.apply(v.verdicts.At(int(f.num), f.pc))
			if v.oracle != nil {
				if err := v.oracle.checkStore(f.m.QualifiedName(), f.pc, int(in.Line), t.id, satb.FieldSite, elide, old, val.R, obj.R); err != nil {
					return err
				}
			}
			key := satb.SiteKey{Method: f.m.QualifiedName(), PC: f.pc}
			v.counters.BarrierSiteSpec(v.spec, v.logger(), v.counters.Site(key, satb.FieldSite, elide),
				elide, old, val.R, obj.R)
		}
	case bytecode.OpGetStatic:
		fs := &v.syms.Fields[f.body.FieldAt[f.pc]]
		push(load(*v.heap.Static(fs.Slot), fs.IsRef))
	case bytecode.OpPutStatic:
		val := pop()
		fs := &v.syms.Fields[f.body.FieldAt[f.pc]]
		p := v.heap.Static(fs.Slot)
		old := heap.Ref(*p)
		*p = word(val, fs.IsRef)
		if fs.IsRef {
			if v.oracle != nil {
				// Statics are globally reachable: the stored object (and
				// everything it reaches) is published.
				v.oracle.escape(val.R)
			}
			v.counters.StaticBarrierSpec(v.spec, v.logger(), old, val.R)
		}

	case bytecode.OpNewInstance:
		r := v.heap.AllocObject(v.syms.Class(f.m.Operand(f.pc).Type.Class))
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, f.m.QualifiedName(), f.pc, t.id)
		}
		push(refVal(r))
	case bytecode.OpNewArray:
		n := pop().I
		if uint64(n) > maxArrayLen {
			return v.errf(f, "%s", arraySizeFault(n))
		}
		r := v.heap.AllocArray(f.m.Operand(f.pc).Type.IsRef(), n)
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, f.m.QualifiedName(), f.pc, t.id)
		}
		push(refVal(r))
	case bytecode.OpArrayLength:
		arr := pop()
		n := v.heap.ArrayLen(arr.R)
		if n < 0 {
			return v.errf(f, "%s", v.heapFault(lengthOf, arr.R, 0, nil))
		}
		push(intVal(n))

	case bytecode.OpAALoad, bytecode.OpIALoad:
		idx := pop().I
		arr := pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.errf(f, "%s", v.heapFault(loadElem, arr.R, idx, nil))
		}
		push(load(*p, in.Op == bytecode.OpAALoad))
	case bytecode.OpAAStore, bytecode.OpIAStore:
		val := pop()
		idx := pop().I
		arr := pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.errf(f, "%s", v.heapFault(storeElem, arr.R, idx, nil))
		}
		old := heap.Ref(*p)
		*p = word(val, in.Op == bytecode.OpAAStore)
		if in.Op == bytecode.OpAAStore {
			elide := v.proj.apply(v.verdicts.At(int(f.num), f.pc))
			if v.oracle != nil {
				if err := v.oracle.checkStore(f.m.QualifiedName(), f.pc, int(in.Line), t.id, satb.ArraySite, elide, old, val.R, arr.R); err != nil {
					return err
				}
			}
			key := satb.SiteKey{Method: f.m.QualifiedName(), PC: f.pc}
			v.counters.BarrierSiteSpec(v.spec, v.logger(), v.counters.Site(key, satb.ArraySite, elide),
				elide, old, val.R, arr.R)
		}

	case bytecode.OpInvoke:
		nf := v.newFrame(f.body.CalleeAt[f.pc])
		callee := nf.m
		n := callee.NumArgs()
		for i := n - 1; i >= 0; i-- {
			nf.locals[i] = pop()
		}
		if !callee.Static && nf.locals[0].R == heap.Null {
			return v.errf(f, "null receiver calling %s", f.m.Operand(f.pc))
		}
		f.pc++
		t.frames = append(t.frames, nf)
		return nil
	case bytecode.OpSpawn:
		recv := pop()
		if recv.R == heap.Null {
			return v.errf(f, "null receiver in spawn")
		}
		nf := v.newFrame(f.body.CalleeAt[f.pc])
		nf.locals[0] = recv
		if v.oracle != nil {
			// The receiver (and everything it reaches) becomes visible to
			// the spawned thread.
			v.oracle.escape(recv.R)
		}
		v.threads = append(v.threads, &thread{id: len(v.threads), frames: []*frame{nf}, span: threadSpan(len(v.threads))})
	case bytecode.OpReturn:
		// The caller's pc was already advanced at the invoke.
		t.frames = t.frames[:len(t.frames)-1]
		return nil
	case bytecode.OpReturnValue:
		rv := pop()
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) > 0 {
			caller := t.frames[len(t.frames)-1]
			caller.stack = append(caller.stack, rv)
		}
		return nil
	case bytecode.OpPrint:
		v.output = append(v.output, pop().I)
	case bytecode.OpTrap:
		return v.errf(f, "missing return value")
	}
	f.pc++
	return nil
}

// b2i is the shared bool→int conversion (kept as a local alias so the hot
// interpreter loop reads naturally).
func b2i(b bool) int64 { return num.B2I(b) }
