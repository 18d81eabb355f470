// Package metatest is the metamorphic conformance harness: it hunts for
// soundness and precision bugs by running generated programs (progen
// campaign corpora) through a library of properties with known oracles —
// configuration invariances (barrier mode, engine, inline limit never
// change output), the PR-2 runtime elision oracle under concurrent
// marking, metamorphic source mutations (dead-store insertion never
// decreases logged-barrier counts; independent-statement reordering
// preserves elision decisions), and the cross-flavor soundness check
// (every barrier flavor — conditional, always-log, yuasa, dijkstra,
// hybrid, card — must be observationally identical between the elided
// and all-barriers builds under its natural collector, with the oracle
// armed). Counterexamples are minimized by the
// shrinker (shrink.go) and packaged as replayable repro artifacts by the
// campaign runner (campaign.go), which cmd/satbtest fronts.
package metatest

import (
	"fmt"
	"reflect"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// maxSteps bounds every property run; progen programs are total and
// terminate far below this.
const maxSteps = 20_000_000

// Violation is a property failure on a *compiling* program — the only
// error kind the shrinker and campaign treat as a counterexample.
// Compile errors stay plain errors so that shrinking never wanders into
// syntactically broken territory.
type Violation struct {
	Prop string
	Msg  string
}

func (v *Violation) Error() string { return fmt.Sprintf("%s: %s", v.Prop, v.Msg) }

// Property is one metamorphic or invariance check. Check returns nil when
// the property holds, a *Violation when the program is a counterexample,
// and any other error when the source does not compile or the VM faults
// in a way the property does not judge.
type Property struct {
	Name string
	// Check evaluates the property for src under the given analysis
	// options (the campaign's fault-injection point).
	Check func(src string, analysis core.Options) error
}

// Properties returns the full property library in a deterministic order.
func Properties() []Property {
	return []Property{
		{Name: "engine-invariance", Check: checkEngineInvariance},
		{Name: "barrier-mode-invariance", Check: checkBarrierModeInvariance},
		{Name: "inline-soundness", Check: checkInlineSoundness},
		{Name: "dead-store-monotone", Check: checkDeadStoreMonotone},
		{Name: "reorder-invariance", Check: checkReorderInvariance},
		{Name: "flavor-soundness", Check: checkFlavorSoundness},
		{Name: "summary-soundness", Check: checkSummarySoundness},
	}
}

// PropertyNames lists the library's property names in order.
func PropertyNames() []string {
	var out []string
	for _, p := range Properties() {
		out = append(out, p.Name)
	}
	return out
}

func compile(src string, limit int, analysis core.Options) (*pipeline.Build, error) {
	b, err := pipeline.Compile("metatest", src, pipeline.Options{
		InlineLimit: limit,
		Analysis:    analysis,
	})
	if err != nil {
		return nil, err
	}
	// A program without an entrypoint is not a runnable counterexample;
	// keep it a plain error (like a syntax error) so the shrinker never
	// "simplifies" a genuine failure into a main-less husk whose only sin
	// is that the VM cannot start it.
	if b.Program.Method(b.Program.Main) == nil {
		return nil, fmt.Errorf("metatest: program has no entrypoint %s", b.Program.Main)
	}
	return b, nil
}

// runsStandalone reports whether src compiles and runs to completion
// with the analysis disabled — i.e. whether it is a valid, total
// program independent of any elision decision.
func runsStandalone(src string) bool {
	b, err := compile(src, 0, core.Options{Mode: core.ModeNone})
	if err != nil {
		return false
	}
	_, err = b.Run(vm.Config{Barrier: satb.ModeConditional, MaxSteps: maxSteps})
	return err == nil
}

// oracleConfig is the PR-2 runtime elision oracle under concurrent SATB
// marking: every elided store execution is validated against the actual
// pre-value, and the snapshot invariant is checked each cycle.
func oracleConfig() vm.Config {
	return vm.Config{
		Barrier:            satb.ModeConditional,
		GC:                 vm.GCSATB,
		TriggerEveryAllocs: 64,
		CheckInvariant:     true,
		CheckElisions:      true,
		MaxSteps:           maxSteps,
	}
}

// checkEngineInvariance: the fused engine and the compiled tier must be
// bit-identical to the switch interpreter — output, step count, barrier
// counters, and cost model. The tier runs at threshold 2 so generated
// programs, which are short, actually execute compiled segments.
func checkEngineInvariance(src string, analysis core.Options) error {
	b, err := compile(src, 100, analysis)
	if err != nil {
		return err
	}
	var ref *vm.Result
	for _, engine := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
		res, err := b.Run(vm.Config{
			Engine:        engine,
			Barrier:       satb.ModeConditional,
			MaxSteps:      maxSteps,
			TierThreshold: 2,
		})
		if err != nil {
			return &Violation{Prop: "engine-invariance", Msg: fmt.Sprintf("engine %v: %v", engine, err)}
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Output, ref.Output) {
			return &Violation{Prop: "engine-invariance",
				Msg: fmt.Sprintf("output differs: %v %v vs switch %v", engine, res.Output, ref.Output)}
		}
		if res.Steps != ref.Steps || res.Counters.Logged != ref.Counters.Logged ||
			res.Counters.Cost != ref.Counters.Cost || res.TotalCost() != ref.TotalCost() {
			return &Violation{Prop: "engine-invariance",
				Msg: fmt.Sprintf("accounting differs (%v/switch): steps %d/%d logged %d/%d cost %d/%d",
					engine, res.Steps, ref.Steps, res.Counters.Logged, ref.Counters.Logged, res.TotalCost(), ref.TotalCost())}
		}
	}
	return nil
}

// checkBarrierModeInvariance: the barrier mode and collector choice are
// observationally transparent — program output never changes.
func checkBarrierModeInvariance(src string, analysis core.Options) error {
	b, err := compile(src, 100, analysis)
	if err != nil {
		return err
	}
	configs := []vm.Config{
		{Barrier: satb.ModeNoBarrier},
		{Barrier: satb.ModeConditional},
		{Barrier: satb.ModeAlwaysLog},
		{Barrier: satb.ModeCardMarking, GC: vm.GCIncremental, TriggerEveryAllocs: 48},
		{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 48},
	}
	var base []int64
	for i, cfg := range configs {
		cfg.MaxSteps = maxSteps
		res, err := b.Run(cfg)
		if err != nil {
			return &Violation{Prop: "barrier-mode-invariance",
				Msg: fmt.Sprintf("config %d (%v/%v): %v", i, cfg.Barrier, cfg.GC, err)}
		}
		if i == 0 {
			base = res.Output
		} else if !reflect.DeepEqual(base, res.Output) {
			return &Violation{Prop: "barrier-mode-invariance",
				Msg: fmt.Sprintf("config %d (%v/%v) changed output %v -> %v",
					i, cfg.Barrier, cfg.GC, base, res.Output)}
		}
	}
	return nil
}

// checkInlineSoundness: inlining must never change output, and at every
// inline level the elision decisions must survive the runtime oracle
// under concurrent marking. Soundness is monotone in analysis knowledge —
// output never is a function of the limit.
func checkInlineSoundness(src string, analysis core.Options) error {
	var base []int64
	for _, limit := range []int{0, 50, 200} {
		b, err := compile(src, limit, analysis)
		if err != nil {
			return err
		}
		res, err := b.Run(oracleConfig())
		if err != nil {
			return &Violation{Prop: "inline-soundness",
				Msg: fmt.Sprintf("limit %d: %v", limit, err)}
		}
		if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
			return &Violation{Prop: "inline-soundness",
				Msg: fmt.Sprintf("limit %d: unsound sites %v", limit, s.UnsoundSites)}
		}
		if base == nil {
			base = res.Output
		} else if !reflect.DeepEqual(base, res.Output) {
			return &Violation{Prop: "inline-soundness",
				Msg: fmt.Sprintf("limit %d changed output %v -> %v", limit, base, res.Output)}
		}
	}
	return nil
}

// checkDeadStoreMonotone: inserting unobservable reference stores (into a
// fresh class nothing reads) must leave the output unchanged and can only
// add logged-barrier executions, never remove them. The mutant also runs
// under the elision oracle, so an analysis that wrongly proves one of the
// inserted overwrites pre-null is flagged directly.
func checkDeadStoreMonotone(src string, analysis core.Options) error {
	orig, err := compile(src, 100, analysis)
	if err != nil {
		return err
	}
	mutSrc, ok := InsertDeadStores(src)
	if !ok {
		return nil // no insertion point; vacuously holds
	}
	mut, err := compile(mutSrc, 100, analysis)
	if err != nil {
		return fmt.Errorf("dead-store mutant failed to compile: %w", err)
	}
	cfg := vm.Config{Barrier: satb.ModeConditional, CheckElisions: true, MaxSteps: maxSteps}
	origRes, err := orig.Run(cfg)
	if err != nil {
		return &Violation{Prop: "dead-store-monotone", Msg: fmt.Sprintf("original: %v", err)}
	}
	mutRes, err := mut.Run(cfg)
	if err != nil {
		return &Violation{Prop: "dead-store-monotone", Msg: fmt.Sprintf("mutant: %v", err)}
	}
	if !reflect.DeepEqual(origRes.Output, mutRes.Output) {
		return &Violation{Prop: "dead-store-monotone",
			Msg: fmt.Sprintf("dead stores changed output %v -> %v", origRes.Output, mutRes.Output)}
	}
	if mutRes.Counters.Logged < origRes.Counters.Logged {
		return &Violation{Prop: "dead-store-monotone",
			Msg: fmt.Sprintf("logged barriers decreased: %d -> %d",
				origRes.Counters.Logged, mutRes.Counters.Logged)}
	}
	return nil
}

// checkReorderInvariance: swapping adjacent independent pure int
// declarations is semantics-preserving and must not change output or any
// static elision total.
func checkReorderInvariance(src string, analysis core.Options) error {
	orig, err := compile(src, 100, analysis)
	if err != nil {
		return err
	}
	mutSrc, ok := SwapIndependentStmts(src)
	if !ok {
		return nil // no swappable pair; vacuously holds
	}
	mut, err := compile(mutSrc, 100, analysis)
	if err != nil {
		return fmt.Errorf("reorder mutant failed to compile: %w", err)
	}
	cfg := vm.Config{Barrier: satb.ModeConditional, MaxSteps: maxSteps}
	origRes, err := orig.Run(cfg)
	if err != nil {
		return &Violation{Prop: "reorder-invariance", Msg: fmt.Sprintf("original: %v", err)}
	}
	mutRes, err := mut.Run(cfg)
	if err != nil {
		return &Violation{Prop: "reorder-invariance", Msg: fmt.Sprintf("mutant: %v", err)}
	}
	if !reflect.DeepEqual(origRes.Output, mutRes.Output) {
		return &Violation{Prop: "reorder-invariance",
			Msg: fmt.Sprintf("reorder changed output %v -> %v", origRes.Output, mutRes.Output)}
	}
	of := totals(orig)
	mf := totals(mut)
	if of != mf {
		return &Violation{Prop: "reorder-invariance",
			Msg: fmt.Sprintf("reorder changed elision totals %+v -> %+v", of, mf)}
	}
	return nil
}

type elisionTotals struct {
	FieldSites, ArraySites, FieldElided, ArrayElided, NullOrSame int
}

func totals(b *pipeline.Build) elisionTotals {
	var t elisionTotals
	t.FieldSites, t.ArraySites, t.FieldElided, t.ArrayElided, t.NullOrSame = b.Report.Totals()
	return t
}

// checkSummarySoundness: interprocedural summaries are a pure precision
// layer — at inline limit 0 (every call a summary consultation) the
// summaries-on and summaries-off builds must be observationally
// identical under every barrier flavor, and the extra elisions the
// summaries unlock must survive the runtime oracle. An unsound summary
// (e.g. the trust-all-summaries mutant of internal/mutants) shows up
// either as an oracle violation on the summaries-on build or as an
// execution divergence.
func checkSummarySoundness(src string, analysis core.Options) error {
	on := analysis
	on.Interprocedural = true
	off := analysis
	off.Interprocedural = false
	bOn, err := compile(src, 0, on)
	if err != nil {
		return err
	}
	bOff, err := compile(src, 0, off)
	if err != nil {
		return err
	}
	pairings := []struct {
		mode satb.BarrierMode
		gc   vm.GCKind
	}{
		{satb.ModeConditional, vm.GCSATB},
		{satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeHybrid, vm.GCSATB},
	}
	for _, pr := range pairings {
		cfg := vm.Config{
			Barrier:            pr.mode,
			GC:                 pr.gc,
			TriggerEveryAllocs: 64,
			CheckInvariant:     true,
			CheckElisions:      true,
			MaxSteps:           maxSteps,
		}
		onRes, err := bOn.Run(cfg)
		if err != nil {
			return &Violation{Prop: "summary-soundness",
				Msg: fmt.Sprintf("%v summaries-on: %v", pr.mode, err)}
		}
		offRes, err := bOff.Run(cfg)
		if err != nil {
			return &Violation{Prop: "summary-soundness",
				Msg: fmt.Sprintf("%v summaries-off: %v", pr.mode, err)}
		}
		if !reflect.DeepEqual(onRes.Output, offRes.Output) {
			return &Violation{Prop: "summary-soundness",
				Msg: fmt.Sprintf("%v: summaries changed output %v -> %v", pr.mode, offRes.Output, onRes.Output)}
		}
		if onRes.Steps != offRes.Steps || onRes.Allocated != offRes.Allocated || onRes.Cycles != offRes.Cycles {
			return &Violation{Prop: "summary-soundness",
				Msg: fmt.Sprintf("%v: summaries changed execution: steps %d/%d allocated %d/%d cycles %d/%d",
					pr.mode, onRes.Steps, offRes.Steps, onRes.Allocated, offRes.Allocated, onRes.Cycles, offRes.Cycles)}
		}
		for _, side := range []struct {
			name string
			res  *vm.Result
		}{{"on", onRes}, {"off", offRes}} {
			if s := side.res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
				return &Violation{Prop: "summary-soundness",
					Msg: fmt.Sprintf("%v summaries-%s: unsound sites %v", pr.mode, side.name, s.UnsoundSites)}
			}
		}
	}
	return nil
}

// checkFlavorSoundness: every barrier flavor, run under its natural
// collector with the runtime elision oracle armed, must be
// observationally identical between the analyzed (elided) build and the
// sound all-barriers build. The VM projects analysis verdicts through
// each flavor's soundness predicate, so a projection bug shows up as an
// oracle violation or an output/step/allocation divergence. Sweep totals
// are deliberately NOT compared: an all-barriers run logs pre-values at
// sites the elided run proved removable, keeping otherwise-dead objects
// alive one extra cycle (floating garbage) — a legitimate difference.
func checkFlavorSoundness(src string, analysis core.Options) error {
	elided, err := compile(src, 100, analysis)
	if err != nil {
		return err
	}
	full, err := compile(src, 100, core.Options{Mode: core.ModeNone})
	if err != nil {
		return err
	}
	pairings := []struct {
		mode satb.BarrierMode
		gc   vm.GCKind
	}{
		{satb.ModeConditional, vm.GCSATB},
		{satb.ModeAlwaysLog, vm.GCSATB},
		{satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeHybrid, vm.GCSATB},
		{satb.ModeCardMarking, vm.GCIncremental},
	}
	for _, pr := range pairings {
		cfg := vm.Config{
			Barrier:            pr.mode,
			GC:                 pr.gc,
			TriggerEveryAllocs: 64,
			// Armed only on snapshot-sound flavors; the insertion-only
			// and card flavors do not maintain the mark-start snapshot.
			CheckInvariant: true,
			CheckElisions:  true,
			MaxSteps:       maxSteps,
		}
		eres, err := elided.Run(cfg)
		if err != nil {
			return &Violation{Prop: "flavor-soundness",
				Msg: fmt.Sprintf("%v/%v elided: %v", pr.mode, pr.gc, err)}
		}
		fres, err := full.Run(cfg)
		if err != nil {
			return &Violation{Prop: "flavor-soundness",
				Msg: fmt.Sprintf("%v/%v all-barriers: %v", pr.mode, pr.gc, err)}
		}
		if !reflect.DeepEqual(eres.Output, fres.Output) {
			return &Violation{Prop: "flavor-soundness",
				Msg: fmt.Sprintf("%v: elision changed output %v -> %v", pr.mode, fres.Output, eres.Output)}
		}
		if eres.Steps != fres.Steps || eres.Allocated != fres.Allocated || eres.Cycles != fres.Cycles {
			return &Violation{Prop: "flavor-soundness",
				Msg: fmt.Sprintf("%v: elision changed execution: steps %d/%d allocated %d/%d cycles %d/%d",
					pr.mode, eres.Steps, fres.Steps, eres.Allocated, fres.Allocated, eres.Cycles, fres.Cycles)}
		}
		if s := eres.Counters.Summarize(); len(s.UnsoundSites) > 0 {
			return &Violation{Prop: "flavor-soundness",
				Msg: fmt.Sprintf("%v: unsound sites %v", pr.mode, s.UnsoundSites)}
		}
	}
	return nil
}
