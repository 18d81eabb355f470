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
	// raw bytecode, kept as the differential-testing baseline. It runs on
	// the same threads, frames, scheduler and root walk as the other
	// engines, and keeps only its instruction semantics to itself: it reads
	// no decoded instruction, projects each verdict at every store, takes
	// a fresh frame per call and visits every quantum boundary.
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

	// dprog is the program's image under proj, which every engine runs on.
	// ms is this VM's state per method number; siteStats the decoded
	// engines' counters per site number, created on a site's first
	// execution so that a never-executed site leaves no trace (as in the
	// switch interpreter, which keys its sites by satb.SiteKey). threads
	// are the run's threads.
	dprog     *dprogram
	ms        []mstate
	siteStats []*satb.SiteStats
	threads   []*thread

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

	// schedTurns counts the turns the scheduler granted; schedSkipped
	// counts the quantum boundaries inside those turns that were not
	// visited because nothing could observe them (see horizon; always 0 on
	// the switch interpreter). Published to the observability registry only.
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
		syms:          p.Symbols(),
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
	if d := imageOf(p, v.verdicts, v.proj); d.err != nil {
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
// error for any other program, before it runs an instruction: the check is
// made once per image (decodeProgram), which every engine runs on.
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
// statics stay readable. The marker's gray stack goes to the next VM's
// marker (gc.Marker.Release).
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
	if v.marker != nil {
		v.marker.Release()
	}
	return res, err
}

func (v *VM) run() (*Result, error) {
	switch {
	case v.err != nil:
		return nil, v.err
	case v.cfg.Engine == EngineSwitch:
		return v.runTurns(v.runSwitchQuantum)
	case v.tierEnabled():
		return v.runTurns(v.runTieredQuantum)
	}
	return v.runTurns(v.runFusedQuantum)
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
	obs.Count("vm.frame_pool.recycles", v.framesRecycled())
	obs.Count("vm.sched.turns", v.schedTurns)
	obs.Count("vm.sched.boundaries_skipped", v.schedSkipped)
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

// frame is an activation record of every engine. stack is used with an
// explicit stack pointer (sp) and grows on demand, so unverified programs
// with an understated MaxStack run as with an append-based stack.
type frame struct {
	m      *dmethod
	pc     int32
	sp     int32
	locals []value
	stack  []value
}

func (f *frame) push(val value) {
	if int(f.sp) == len(f.stack) {
		f.stack = append(f.stack, value{})
	}
	f.stack[f.sp] = val
	f.sp++
}

func (f *frame) pop() value {
	f.sp--
	return f.stack[f.sp]
}

// newFrame returns a new frame of m: the switch interpreter takes one per
// call, the decoded engines one when m's frame pool is empty (acquire).
func newFrame(m *dmethod) *frame {
	return &frame{m: m, locals: make([]value, m.numSlots), stack: make([]value, m.stackCap)}
}

// thread is one cooperative thread.
type thread struct {
	id     int
	frames []*frame
	done   bool
	// span is the thread's observability lane span (inert when tracing
	// is disabled).
	span obs.Span
}

// spawn starts a thread whose only frame is f.
func (v *VM) spawn(f *frame) {
	id := len(v.threads)
	v.threads = append(v.threads, &thread{id: id, frames: []*frame{f}, span: threadSpan(id)})
}

// runTurns executes the program: turn is the engine's per-turn body
// (runSwitchQuantum, runFusedQuantum or runTieredQuantum). Threads take
// turns round-robin, and the collector ticks after every turn. A decoded
// engine's turn covers up to horizon() base instructions, so it does not
// visit quantum boundaries nothing can observe.
func (v *VM) runTurns(turn func(t *thread, limit int) error) (*Result, error) {
	v.spawn(newFrame(v.dprog.main))
	if v.cfg.ForceMarkingAlways && v.marker != nil {
		v.startCycle()
	}

	q := int64(v.cfg.Quantum)
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
			limit, before, nthreads := v.horizon(live), v.steps, len(v.threads)
			if err := turn(t, limit); err != nil {
				return nil, err
			}
			v.schedTurns++
			if ran := v.steps - before; ran > q {
				v.schedSkipped += (ran - 1) / q
			}
			live += len(v.threads) - nthreads
			if t.done {
				live--
			}
			v.gcTick()
		}
	}
	if v.marker != nil && v.marker.MarkingActive() {
		v.finishCycle()
	}
	return v.result(), nil
}

// horizonSteps caps a coalesced turn: with nothing to observe at any quantum
// boundary a thread still returns to the scheduler — and RunContext's
// cancellation is still polled — about every 2^16 base instructions, a
// fraction of a millisecond.
const horizonSteps = 1 << 16

// horizon is the number of base instructions the next turn may run before
// the first quantum boundary at which anything observable can happen; live
// is the number of threads not yet done. It is a multiple of the quantum q,
// and exactly q whenever every boundary matters:
//
//   - a second live thread is waiting for its rotation;
//   - a marker is marking, or ForceMarkingAlways restarts one at every tick;
//   - the allocation trigger is within reach. A base instruction allocates at
//     most one object, so with room allocations left before the trigger no
//     boundary before step room can start a cycle, and the turn may run
//     room/q whole quanta.
//
// At every boundary the turn skips, gcTick would have done nothing and no
// other thread would have run, so results are bit-identical to visiting it.
func (v *VM) horizon(live int) int {
	q := v.cfg.Quantum
	if live > 1 {
		return q
	}
	room := int64(horizonSteps)
	if v.marker != nil {
		if v.cfg.ForceMarkingAlways || v.marker.MarkingActive() {
			return q
		}
		if trig := v.cfg.TriggerEveryAllocs; trig > 0 {
			room = min(room, trig-v.allocSinceGC)
		}
	}
	return max(q, int(room)/q*q)
}

// roots collects the current GC roots: every reference in every thread's
// frames, plus static fields, in one order (threads, frames bottom-up,
// locals by slot, then stack bottom-up) so the deterministic marker sees
// the same work queue whichever engine runs. The slice is the VM's one
// root buffer, valid until the next call; markers do not keep it.
func (v *VM) roots() []heap.Ref {
	out := v.rootBuf[:0]
	for _, t := range v.threads {
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

// errf builds the switch interpreter's RuntimeError at the frame's current
// pc, from the raw bytecode.
func (v *VM) errf(f *frame, format string, args ...any) error {
	return &RuntimeError{Method: f.m.src.QualifiedName(), PC: int(f.pc), Line: int(f.m.src.Code[f.pc].Line), Msg: fmt.Sprintf(format, args...)}
}

// runSwitchQuantum is the switch interpreter's turn: exactly one quantum of
// instructions on one thread, whatever limit the scheduler offers, so the
// reference visits every quantum boundary.
func (v *VM) runSwitchQuantum(t *thread, _ int) error {
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

// step executes one raw instruction of the thread's top frame. It reads
// the method's bytecode and Body (dmethod.src, body), nothing decode made
// of them, and projects each store's verdict at every execution.
func (v *VM) step(t *thread) error {
	f := t.frames[len(t.frames)-1]
	m, body, pc := f.m.src, f.m.body, int(f.pc)
	in := &m.Code[pc]
	v.steps++

	switch in.Op {
	case bytecode.OpNop:
	case bytecode.OpConst, bytecode.OpConstBool:
		f.push(intVal(in.A))
	case bytecode.OpConstNull:
		f.push(nullVal())
	case bytecode.OpLoad:
		f.push(f.locals[in.A])
	case bytecode.OpStore:
		f.locals[in.A] = f.pop()
	case bytecode.OpDup:
		f.push(f.stack[f.sp-1])
	case bytecode.OpPop:
		f.pop()
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem:
		y, x := f.pop().I, f.pop().I
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
		f.push(intVal(r))
	case bytecode.OpNeg:
		f.push(intVal(-f.pop().I))
	case bytecode.OpAnd:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(x & y))
	case bytecode.OpOr:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(x | y))
	case bytecode.OpNot:
		f.push(intVal(1 - f.pop().I))
	case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
		bytecode.OpCmpGT, bytecode.OpCmpGE:
		y, x := f.pop().I, f.pop().I
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
		f.push(intVal(b2i(b)))
	case bytecode.OpRefEQ:
		y, x := f.pop().R, f.pop().R
		f.push(intVal(b2i(x == y)))
	case bytecode.OpRefNE:
		y, x := f.pop().R, f.pop().R
		f.push(intVal(b2i(x != y)))

	case bytecode.OpGoto:
		f.pc = int32(in.A)
		return nil
	case bytecode.OpIfTrue:
		if f.pop().I != 0 {
			f.pc = int32(in.A)
			return nil
		}
	case bytecode.OpIfFalse:
		if f.pop().I == 0 {
			f.pc = int32(in.A)
			return nil
		}
	case bytecode.OpIfNull:
		if f.pop().R == heap.Null {
			f.pc = int32(in.A)
			return nil
		}
	case bytecode.OpIfNonNull:
		if f.pop().R != heap.Null {
			f.pc = int32(in.A)
			return nil
		}

	case bytecode.OpGetField:
		obj := f.pop()
		fs := &v.syms.Fields[body.FieldAt[pc]]
		p := v.heap.FieldSlot(obj.R, int32(fs.Slot))
		if p == nil {
			return v.errf(f, "%s", v.heapFault(readField, obj.R, 0, &fs.Ref))
		}
		f.push(load(*p, fs.IsRef))
	case bytecode.OpPutField:
		val := f.pop()
		obj := f.pop()
		fs := &v.syms.Fields[body.FieldAt[pc]]
		p := v.heap.FieldSlot(obj.R, int32(fs.Slot))
		if p == nil {
			return v.errf(f, "%s", v.heapFault(writeField, obj.R, 0, &fs.Ref))
		}
		old := heap.Ref(*p)
		*p = word(val, fs.IsRef)
		if fs.IsRef {
			elide := v.proj.apply(v.verdicts.At(int(f.m.num), pc))
			if v.oracle != nil {
				if err := v.oracle.checkStore(m.QualifiedName(), pc, int(in.Line), t.id, satb.FieldSite, elide, old, val.R, obj.R); err != nil {
					return err
				}
			}
			key := satb.SiteKey{Method: m.QualifiedName(), PC: pc}
			v.counters.BarrierSiteSpec(v.spec, v.logger(), v.counters.Site(key, satb.FieldSite, elide),
				elide, old, val.R, obj.R)
		}
	case bytecode.OpGetStatic:
		fs := &v.syms.Fields[body.FieldAt[pc]]
		f.push(load(*v.heap.Static(fs.Slot), fs.IsRef))
	case bytecode.OpPutStatic:
		val := f.pop()
		fs := &v.syms.Fields[body.FieldAt[pc]]
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
		r := v.heap.AllocObject(v.syms.Class(m.Operand(pc).Type.Class))
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, m.QualifiedName(), pc, t.id)
		}
		f.push(refVal(r))
	case bytecode.OpNewArray:
		n := f.pop().I
		if uint64(n) > maxArrayLen {
			return v.errf(f, "%s", arraySizeFault(n))
		}
		r := v.heap.AllocArray(m.Operand(pc).Type.IsRef(), n)
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, m.QualifiedName(), pc, t.id)
		}
		f.push(refVal(r))
	case bytecode.OpArrayLength:
		arr := f.pop()
		n := v.heap.ArrayLen(arr.R)
		if n < 0 {
			return v.errf(f, "%s", v.heapFault(lengthOf, arr.R, 0, nil))
		}
		f.push(intVal(n))

	case bytecode.OpAALoad, bytecode.OpIALoad:
		idx := f.pop().I
		arr := f.pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.errf(f, "%s", v.heapFault(loadElem, arr.R, idx, nil))
		}
		f.push(load(*p, in.Op == bytecode.OpAALoad))
	case bytecode.OpAAStore, bytecode.OpIAStore:
		val := f.pop()
		idx := f.pop().I
		arr := f.pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.errf(f, "%s", v.heapFault(storeElem, arr.R, idx, nil))
		}
		old := heap.Ref(*p)
		*p = word(val, in.Op == bytecode.OpAAStore)
		if in.Op == bytecode.OpAAStore {
			elide := v.proj.apply(v.verdicts.At(int(f.m.num), pc))
			if v.oracle != nil {
				if err := v.oracle.checkStore(m.QualifiedName(), pc, int(in.Line), t.id, satb.ArraySite, elide, old, val.R, arr.R); err != nil {
					return err
				}
			}
			key := satb.SiteKey{Method: m.QualifiedName(), PC: pc}
			v.counters.BarrierSiteSpec(v.spec, v.logger(), v.counters.Site(key, satb.ArraySite, elide),
				elide, old, val.R, arr.R)
		}

	case bytecode.OpInvoke:
		nf := newFrame(v.dprog.methods[body.CalleeAt[pc]])
		callee := nf.m.src
		for i := callee.NumArgs() - 1; i >= 0; i-- {
			nf.locals[i] = f.pop()
		}
		if !callee.Static && nf.locals[0].R == heap.Null {
			return v.errf(f, "null receiver calling %s", m.Operand(pc))
		}
		f.pc++
		t.frames = append(t.frames, nf)
		return nil
	case bytecode.OpSpawn:
		recv := f.pop()
		if recv.R == heap.Null {
			return v.errf(f, "null receiver in spawn")
		}
		nf := newFrame(v.dprog.methods[body.CalleeAt[pc]])
		nf.locals[0] = recv
		if v.oracle != nil {
			// The receiver (and everything it reaches) becomes visible to
			// the spawned thread.
			v.oracle.escape(recv.R)
		}
		v.spawn(nf)
	case bytecode.OpReturn:
		// The caller's pc was already advanced at the invoke.
		t.frames = t.frames[:len(t.frames)-1]
		return nil
	case bytecode.OpReturnValue:
		rv := f.pop()
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) > 0 {
			t.frames[len(t.frames)-1].push(rv)
		}
		return nil
	case bytecode.OpPrint:
		v.output = append(v.output, f.pop().I)
	case bytecode.OpTrap:
		return v.errf(f, "missing return value")
	}
	f.pc++
	return nil
}

// b2i is the shared bool→int conversion (kept as a local alias so the hot
// interpreter loop reads naturally).
func b2i(b bool) int64 { return num.B2I(b) }
