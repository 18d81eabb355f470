package vm

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
)

// This file is the compiled hot-method tier (EngineCompiled), the third
// execution engine. Methods start on fused dispatch; once a method's exec
// counter (entries + loop back-edges) crosses Config.TierThreshold it is
// translated to closure-threaded code: the decoded body is partitioned
// into straight-line segments (every branch target, call return point,
// and post-terminator pc is a segment leader), each segment becomes an
// array of continuation closures plus one terminator closure whose branch
// targets are resolved to segment indices.
//
// A translation is part of the image, not of the VM that made it. It is a
// function of the image, the method and one bit of the flavor (whether it
// shades nothing), and no translation function can reach a VM: the closures
// take the running VM as an argument and read its heap, statics, counters
// and logger from it. The first VM to tier a method up publishes the
// translation in the dmethod; every later VM of the image installs it
// without translating. When a VM tiers a method up is still its own
// decision (mstate.hotness), so tier-up timing does not depend on other VMs.
//
// Translation is a real compile, not a re-packaging of dispatch:
//
//   - The operand stack is simulated symbolically. Producers (constants,
//     local loads, static loads by slot number, field/array loads,
//     arithmetic) become value thunks that
//     are composed directly into their consumers, so a statement like
//     `a[i] = x.f` runs as ONE closure with no push/pop traffic and no
//     per-instruction dispatch between its parts. Thunks whose deferral
//     could reorder side effects are materialized first (only constants
//     may stay deferred past another emitted operation), so evaluation
//     order — including error order — is exactly the reference
//     interpreter's.
//   - Elided reference stores compile to raw writes followed only by the
//     per-site instrumentation counters — no barrier-mode switch, no
//     marking-phase test, no logger dispatch: the compile-time elision
//     proof pays off at full speed, which is the paper's payoff this tier
//     exists to demonstrate. Kept barriers and rearrangement stores keep
//     the exact shared satb.BarrierSiteSpec path so cost accounting stays
//     bit-identical.
//   - Fused superinstructions are preserved: non-branch forms become
//     thunks or standalone compiled ops covering the same base span;
//     compare-and-branch forms become segment terminators.
//
// Parity with the other engines is structural, not hoped for:
//
//   - A turn runs up to the scheduler's horizon (VM.horizon): the next
//     quantum boundary at which a second thread, the marker or the
//     allocation trigger could observe anything. Boundaries before it are
//     not visited, and results are bit-identical to visiting them; with
//     two live threads or an active marker the horizon is one quantum.
//     Horizon and step-budget checks run only at segment boundaries (loop
//     back-edges, branches, calls). A segment whose base instructions all
//     fit in both the remaining turn and the remaining instruction budget
//     runs whole; one that would straddle the end runs compiled up to the
//     furthest resumable entry point that still fits (runSegPart over
//     cseg.entries), and only the sub-expression tail past it goes to
//     fused dispatch, which rotates threads and exhausts budgets at
//     exactly the same instruction as the reference engines. A spawn
//     returns to the driver, which cuts the turn back to the quantum in
//     progress, so the new thread first runs at the step it would without
//     coalescing. Thread interleaving — and therefore GC timing and
//     barrier logging — is reproduced bit for bit.
//   - Step accounting is exact on every path. Each compiled op knows the
//     base-instruction prefix that precedes it (cseg.wbefore); on an
//     error the failing op reports how many base instructions it entered
//     (VM.opEntered, maintained compositionally through nested thunks),
//     and the segment runner charges prefix + entered — precisely the
//     reference interpreter's count-at-entry total. On success one
//     addition charges the whole segment.
//   - Every error path first moves f.pc to the failing instruction so
//     RuntimeError diagnostics are identical.
//   - Conditions the tier cannot handle fall back mid-run with identical
//     semantics: the oracle disables tier-up entirely (tierEnabled), a
//     forced deopt (the tierForceDeoptAfter test hook) permanently
//     re-enters fused dispatch, and a pc that is no entry point (a quantum
//     resuming inside a composed expression) interprets until the next one.

// DefaultTierThreshold is the exec count (method entries + loop
// back-edges) at which a method tiers up when Config.TierThreshold is 0.
const DefaultTierThreshold = 64

// cop is one compiled operation: a continuation with operands, error pc,
// and barrier decision baked in at translation time, run on behalf of VM
// v. It never touches f.pc except on its error path and never touches
// v.steps (the segment runner accounts steps in bulk). On error it must
// leave v.opEntered equal to the number of base instructions entered
// within it.
type cop func(v *VM, t *fthread, f *fframe) error

// cval is a compiled value producer (a deferred expression). On error the
// same opEntered contract as cop applies, relative to the thunk's own
// first base instruction — composers add static offsets for operands
// evaluated before it.
type cval func(v *VM, t *fthread, f *fframe) (value, error)

// cterm is a segment terminator: it performs the control transfer,
// updates f.pc, and returns the next segment index in the same method, or
// one of the signals below when control left the method or the segment
// failed.
type cterm func(v *VM, t *fthread, f *fframe) (int32, error)

// cbarrier is a store site's compiled barrier: pre is the overwritten
// reference, newR the stored one, target the object or array written.
type cbarrier func(v *VM, pre, newR, target heap.Ref)

// termToDriver tells the segment loop to return to the quantum driver.
const termToDriver = int32(-1)

// termSpawned tells the segment loop to return to the quantum driver after
// a spawn: the new thread makes every later quantum boundary observable, so
// the driver cuts the turn back (spawnClamp) before another segment runs.
const termSpawned = int32(-3)

// termSwitchFrame tells the segment loop that control moved to a
// different frame (call or return): the chain re-resolves the new top
// frame's compiled entry and keeps running without a driver round trip.
const termSwitchFrame = int32(-2)

// cseg is one straight-line compiled segment.
type cseg struct {
	pc    int32 // head pc (the segment's leader)
	n     int32 // base instructions covered, terminator included
	termW int32 // of which, the terminator (with any composed operand)
	// ops is the compiled body; wbefore[i] is the base-instruction
	// prefix preceding op i (charged together with opEntered when op i
	// errors).
	ops     []cop
	wbefore []int32
	term    cterm
	// entries are the segment's resumable entry points in ascending
	// order (op index, weight covered before it, pc), used both to
	// resume after a quantum rotation and to stop a partial run at the
	// furthest boundary that still fits the remaining quantum.
	entries []segEntry
}

// segEntry is one resumable boundary inside a segment.
type segEntry struct{ op, w, pc int32 }

// cmethod is the compiled form of one method, read-only once built and
// shared by every VM of its image (dmethod.compiled). segOf maps each pc to
// its segment index (-1 when the pc is not a leader). eSeg/eOp/eW are the
// mid-segment entry tables: every instruction boundary where the
// translation-time symbolic stack was empty is a resumable entry point —
// the real operand stack there holds exactly what the remaining compiled
// ops expect, whichever engine produced it — recording the segment, the
// op index to resume at, and the base-instruction weight already covered
// (so a resumed run charges only the remainder). This is what keeps
// compiled occupancy high across scheduler-quantum rotations: a quantum
// that ends mid-segment resumes compiled execution at the very next
// entry point instead of interpreting to the next leader.
type cmethod struct {
	segs  []cseg
	segOf []int32
	eSeg  []int32
	eOp   []int32
	eW    []int32
}

// entryAt resolves pc to its entry point: the segment (negative when pc is
// none), the op index to resume at and the base-instruction weight already
// covered. The three belong together — a loop head is tail-duplicated into
// its back-edge segment, so even a method's first pc or a call's return
// point may name a mid-segment entry.
func (cm *cmethod) entryAt(pc int32) (si, op, w int32) {
	return cm.eSeg[pc], cm.eOp[pc], cm.eW[pc]
}

// cerr builds a runtime error at pc, recording how many base
// instructions the failing compiled op (or terminator) had entered —
// the opEntered charge protocol shared by cop, cval, and cterm.
func (v *VM) cerr(f *fframe, pc, entered int32, format string, args ...any) error {
	f.pc = pc
	v.opEntered = entered
	return v.ferrf(f, format, args...)
}

// runTieredQuantum executes up to limit base instructions on one thread
// (limit is a multiple of Quantum, see horizon). Compiled segments execute
// only when they fit the remaining turn and instruction budget in full;
// everything else — cold methods, mid-segment resume points, turn tails,
// budget tails, forced deopt — runs on the fused per-instruction path,
// which is the reference behaviour instruction for instruction.
func (v *VM) runTieredQuantum(t *fthread, limit int) error {
	for i := 0; i < limit; {
		if len(t.frames) == 0 {
			t.done = true
			t.span.End()
			return nil
		}
		if v.steps >= v.maxSteps {
			return fmt.Errorf("vm: instruction budget exhausted (%d)", v.maxSteps)
		}
		f := t.frames[len(t.frames)-1]

		if cm := v.ms[f.m.num].tier; cm != nil && !v.tierOff {
			if si, k, wbase := cm.entryAt(f.pc); si >= 0 {
				ran := false
				deoptAfter := v.hooks.tierForceDeoptAfter
				// Steps still runnable before the turn or the instruction
				// budget ends, whichever is nearer.
				avail := limit - i
				if bs := v.maxSteps - v.steps; bs < int64(avail) {
					avail = int(bs)
				}
				for si >= 0 {
					seg := &cm.segs[si]
					need := int(seg.n - wbase)
					if need > avail {
						// The full remainder straddles the quantum or
						// budget boundary: run compiled ops up to the
						// furthest entry point that still fits, so only
						// sub-expression tails fall back to dispatch.
						rem := avail
						var pe *segEntry
						for j := range seg.entries {
							e := &seg.entries[j]
							if e.w <= wbase {
								continue
							}
							if int(e.w-wbase) > rem {
								break
							}
							pe = e
						}
						if pe != nil {
							if err := v.runSegPart(t, f, seg, k, pe.op, wbase, pe.w); err != nil {
								return err
							}
							f.pc = pe.pc
							i += int(pe.w - wbase)
							ran = true
							v.tierSegExecs++
							if deoptAfter > 0 && v.tierSegExecs >= deoptAfter {
								v.forceDeopt()
							}
						}
						break
					}
					// Segment body inlined (a call per segment is
					// measurable at this granularity): remaining ops,
					// terminator, one bulk step charge on success.
					ops := seg.ops
					for oi := int(k); oi < len(ops); oi++ {
						if err := ops[oi](v, t, f); err != nil {
							v.steps += int64(seg.wbefore[oi]-wbase) + int64(v.opEntered)
							return err
						}
					}
					var err error
					si, err = seg.term(v, t, f)
					if err != nil {
						v.steps += int64(seg.n-seg.termW-wbase) + int64(v.opEntered)
						return err
					}
					v.steps += int64(seg.n - wbase)
					i += need
					avail -= need
					ran = true
					k, wbase = 0, 0
					v.tierSegExecs++
					if deoptAfter > 0 && v.tierSegExecs >= deoptAfter {
						v.forceDeopt()
						break
					}
					if si == termSwitchFrame {
						// Control moved to another frame (call/return):
						// continue the chain there if its code is
						// compiled and the pc is an entry point. The
						// outer loop ends the thread when we break instead.
						if len(t.frames) == 0 {
							break
						}
						f = t.frames[len(t.frames)-1]
						if cm = v.ms[f.m.num].tier; cm == nil {
							break
						}
						si, k, wbase = cm.entryAt(f.pc)
					}
				}
				if si == termSpawned {
					limit = v.spawnClamp(i)
				}
				if ran {
					continue
				}
				// Compiled code was available but not even one entry
				// boundary fit the remaining quantum or budget: deopt to
				// fused dispatch until one does.
				v.tierDeopts++
			}
		}

		in := &f.m.code[f.pc]
		if !v.tierOff {
			v.tierNote(f, in)
		}
		if in.fuse >= 0 {
			fi := &f.m.fused[in.fuse]
			n := int(fi.n)
			if i+n <= limit && v.steps+int64(n) <= v.maxSteps {
				if err := v.execFused(t, f, fi); err != nil {
					return err
				}
				i += n
				continue
			}
		}
		if err := v.stepFused(t, f, in); err != nil {
			if err != errSpawned {
				return err
			}
			limit = v.spawnClamp(i + 1)
		}
		i++
	}
	return nil
}

// runSegPart executes compiled ops [k, k2) covering base instructions
// (wbase, w2] of a segment — a partial run that stops at an entry
// boundary instead of reaching the terminator (the caller moves f.pc to
// the boundary's pc). Used when the whole remainder would straddle a
// quantum or budget boundary.
func (v *VM) runSegPart(t *fthread, f *fframe, seg *cseg, k, k2, wbase, w2 int32) error {
	ops := seg.ops
	for i := int(k); i < int(k2); i++ {
		if err := ops[i](v, t, f); err != nil {
			v.steps += int64(seg.wbefore[i]-wbase) + int64(v.opEntered)
			return err
		}
	}
	v.steps += int64(w2 - wbase)
	return nil
}

// tierNote is the hotness probe on the fused per-instruction path: loop
// back-edges (plain or at the head of a fused compare-and-branch) heat
// the current method, calls heat the callee. Crossing the threshold
// tiers the method up immediately, so a hot loop tiers up mid-method.
func (v *VM) tierNote(f *fframe, in *dinstr) {
	switch in.op {
	case dInvoke, dSpawn:
		v.tierBump(f.m.callees[in.a].m)
	case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull:
		if in.a <= f.pc {
			v.tierBump(f.m)
		}
	case dLoad:
		if in.fuse >= 0 {
			if fi := &f.m.fused[in.fuse]; (fi.op == fLLCmpBr || fi.op == fLCCmpBr) && fi.d <= f.pc {
				v.tierBump(f.m)
			}
		}
	}
}

// tierBump heats a method and tiers it up at the threshold.
func (v *VM) tierBump(dm *dmethod) {
	s := &v.ms[dm.num]
	if s.tier != nil {
		return
	}
	s.hotness++
	if s.hotness >= v.tierThreshold {
		v.tierUp(dm, s)
	}
}

// tierUp installs a hot method's compiled code: the translation the image
// already holds for this flavor's barrier shape, or one this VM makes and
// publishes there. Concurrent first translators may each translate; one
// translation is kept and each VM runs its own, all equal (as imageOf
// keeps images).
func (v *VM) tierUp(dm *dmethod, s *mstate) {
	noShade := !v.spec.ShadesPre && !v.spec.ShadesNew && !v.spec.Card
	at := &dm.compiled[b2i(noShade)]
	cm := at.Load()
	translated := cm == nil
	if translated {
		cm = compileMethod(v.dprog, dm, noShade)
		at.CompareAndSwap(nil, cm)
	}
	s.tier = cm
	v.tierUps++
	if obs.Enabled() {
		obs.Instant("vm", "tier", "tier-up:"+dm.name)
		obs.Count("vm.tier.compiled_methods", 1)
		if translated {
			obs.Count("vm.tier.translations", 1)
		}
	}
}

// forceDeopt abandons all compiled methods for the rest of the run
// (the tierForceDeoptAfter test hook): execution permanently re-enters fused
// dispatch, the tier's deopt target, with identical semantics.
func (v *VM) forceDeopt() {
	v.tierOff = true
	v.tierDeopts++
	if obs.Enabled() {
		obs.Instant("vm", "tier", "forced-deopt")
	}
}

// ---------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------

// thunk is a deferred expression on the translation-time symbolic stack.
// w is the base-instruction weight attributed to the thunk (0 when the
// weight was charged eagerly, as for constants). isConst marks
// order-insensitive thunks that may stay deferred past other emitted
// operations; pure marks infallible, side-effect-free thunks that may be
// dropped or duplicated.
type thunk struct {
	ev      cval
	w       int32
	isConst bool
	canFail bool
	pure    bool
	isLocal bool // exactly "load local" (reads f.locals[local])
	local   int32
	cv      value // the constant, when isConst
}

// segBuilder accumulates one segment's compiled ops while simulating the
// operand stack symbolically. It holds all translation may read — the
// image d, the method dm and whether the flavor shades nothing — and no
// VM, so what it builds can serve every VM of the image.
type segBuilder struct {
	d       *dprogram
	dm      *dmethod
	noShade bool
	cm      *cmethod
	si      int32
	seg     *cseg
	ops     []cop
	wb      []int32
	wAcc    int32
	sym     []thunk
}

// entry records pc as a resumable entry point, provided nothing is deferred
// there: the next op to run is the one about to be appended, with sb.wAcc
// base instructions already covered. Duplicate re-records at the same state
// collapse.
func (sb *segBuilder) entry(pc int) {
	if len(sb.sym) > 0 {
		return
	}
	op, w := int32(len(sb.ops)), sb.wAcc
	if n := len(sb.seg.entries); n > 0 && sb.seg.entries[n-1].op == op && sb.seg.entries[n-1].w == w {
		return
	}
	sb.cm.eSeg[pc], sb.cm.eOp[pc], sb.cm.eW[pc] = sb.si, op, w
	sb.seg.entries = append(sb.seg.entries, segEntry{op: op, w: w, pc: int32(pc)})
}

// charge attributes base instructions to the running prefix without
// emitting an op (constants, nops, dead pure code — all infallible, so
// counting them eagerly matches the reference engine, which would have
// executed them before any later failure point). That holds only while
// nothing deferred can fail: a fallible thunk still on the symbolic stack
// precedes these instructions in program order but runs later, and its
// failure must not count them. The weight then rides on the top thunk —
// composers charge it to whatever they evaluate after that thunk, while the
// thunk's own failure path captured its weight before and excludes it.
func (sb *segBuilder) charge(w int32) {
	for i := range sb.sym {
		if sb.sym[i].canFail {
			sb.sym[len(sb.sym)-1].w += w
			return
		}
	}
	sb.wAcc += w
}

// appendOp appends a compiled op covering w base instructions.
func (sb *segBuilder) appendOp(op cop, w int32) {
	sb.ops = append(sb.ops, op)
	sb.wb = append(sb.wb, sb.wAcc)
	sb.wAcc += w
}

// flush materializes the whole symbolic stack onto the real operand
// stack, in push order, as one compiled op.
func (sb *segBuilder) flush() {
	if len(sb.sym) == 0 {
		return
	}
	ths := sb.sym
	sb.sym = nil
	simple := true
	var w int32
	for i := range ths {
		simple = simple && (ths[i].isLocal || ths[i].isConst)
		w += ths[i].w
	}
	if simple {
		// Locals and constants push with no nested evaluation and no
		// error paths (the common shape under a call's argument pushes).
		sb.appendOp(func(v *VM, t *fthread, f *fframe) error {
			for i := range ths {
				if ths[i].isLocal {
					f.push(f.locals[ths[i].local])
				} else {
					f.push(ths[i].cv)
				}
			}
			return nil
		}, w)
		return
	}
	if len(ths) == 1 {
		th := ths[0]
		sb.appendOp(func(v *VM, t *fthread, f *fframe) error {
			val, err := th.ev(v, t, f)
			if err != nil {
				return err
			}
			f.push(val)
			return nil
		}, w)
		return
	}
	offs := prefixWeights(ths)
	sb.appendOp(func(v *VM, t *fthread, f *fframe) error {
		for i := range ths {
			val, err := ths[i].ev(v, t, f)
			if err != nil {
				v.opEntered += offs[i]
				return err
			}
			f.push(val)
		}
		return nil
	}, w)
}

// prefixWeights is, for each thunk of ths, the weight of those before it:
// what a composer adds to opEntered when that thunk fails.
func prefixWeights(ths []thunk) []int32 {
	offs := make([]int32, len(ths))
	for i := 1; i < len(ths); i++ {
		offs[i] = offs[i-1] + ths[i-1].w
	}
	return offs
}

// emit appends a side-effecting op. Any deferred non-const thunks are
// materialized first so side effects keep program order.
func (sb *segBuilder) emit(op cop, w int32) {
	for _, th := range sb.sym {
		if !th.isConst {
			sb.flush()
			break
		}
	}
	sb.appendOp(op, w)
}

// push defers a value producer.
func (sb *segBuilder) push(th thunk) { sb.sym = append(sb.sym, th) }

// take removes the top k thunks for composition into a consumer. It
// refuses (materializing everything, so the operands are on the real
// stack) when fewer than k thunks are deferred or when a deeper non-const
// thunk would be reordered past the consumer's side effect. The returned
// slice is the symbolic stack's own storage, valid until the next push.
func (sb *segBuilder) take(k int) ([]thunk, bool) {
	if len(sb.sym) >= k {
		ok := true
		for _, th := range sb.sym[:len(sb.sym)-k] {
			if !th.isConst {
				ok = false
				break
			}
		}
		if ok {
			ths := sb.sym[len(sb.sym)-k:]
			sb.sym = sb.sym[:len(sb.sym)-k]
			return ths, true
		}
	}
	sb.flush()
	return nil, false
}

// isTermOp reports the decoded ops that end a segment.
func isTermOp(op dop) bool {
	switch op {
	case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull, dInvoke, dSpawn, dReturn, dReturnValue, dTrap:
		return true
	}
	return false
}

// compileMethod translates method dm of image d into its closure-threaded
// form; noShade is whether the flavor shades nothing, which sends every
// reference store down the raw path (compileBarrier).
func compileMethod(d *dprogram, dm *dmethod, noShade bool) *cmethod {
	code := dm.code

	// Pass 1: segment leaders — entry, branch targets, and every pc after
	// a terminator (branch fallthroughs and call return points).
	leader := make([]bool, len(code)+1)
	leader[0] = true
	for pc := range code {
		switch code[pc].op {
		case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull:
			leader[code[pc].a] = true
			leader[pc+1] = true
		case dInvoke, dSpawn, dReturn, dReturnValue, dTrap:
			leader[pc+1] = true
		}
	}

	cm := &cmethod{
		segOf: make([]int32, len(code)),
		eSeg:  make([]int32, len(code)),
		eOp:   make([]int32, len(code)),
		eW:    make([]int32, len(code)),
	}
	for pc := range cm.segOf {
		cm.segOf[pc] = -1
		cm.eSeg[pc] = -1
	}
	// Segment boundaries first (terminator closures need segOf for their
	// resolved branch-target indices), bodies second.
	var segBounds []segBlock
	for pc := 0; pc < len(code); {
		head := pc
		term := -1
		for pc < len(code) {
			if isTermOp(code[pc].op) {
				term = pc
				pc++
				break
			}
			pc++
			if pc < len(code) && leader[pc] {
				break
			}
		}
		cm.segOf[head] = int32(len(segBounds))
		segBounds = append(segBounds, segBlock{head: head, end: pc, term: term})
	}

	cm.segs = make([]cseg, len(segBounds))
	for i, b := range segBounds {
		sb := &segBuilder{d: d, dm: dm, noShade: noShade, cm: cm, si: int32(i), seg: &cm.segs[i]}
		sb.compileSeg(segBounds, b.head, b.end, b.term)
	}
	return cm
}

// segBlock is one basic block's bounds (term == -1: fallthrough).
type segBlock struct{ head, end, term int }

// compileSeg fills the builder's segment: the ops region [head, termPC)
// translated with symbolic-stack composition, then the terminator (explicit
// at termPC, or the implicit fallthrough). Every instruction boundary whose
// symbolic stack is empty is recorded as a mid-segment entry point: at
// those pcs the interpreter's operand stack holds exactly what the
// remaining compiled ops expect (deferred-but-unconsumed thunks are the
// only translation state, and there are none), so a quantum rotation
// that interrupted the segment can resume compiled execution there. A
// composed terminator condition is the one exception — its operand is
// deferred across the terminator, so no entry is recorded at it.
func (sb *segBuilder) compileSeg(blocks []segBlock, head, end, termPC int) {
	code, cm, seg := sb.dm.code, sb.cm, sb.seg
	seg.pc = int32(head)

	// Superblock growth: a block ending in an unconditional goto or a
	// plain fallthrough keeps translating at its successor (tail
	// duplication — the successor also keeps its own segment for other
	// predecessors), so loop bodies and join chains run as one segment
	// instead of bouncing through the driver per block. visited stops
	// cycles; the cap bounds the duplication.
	const mergeCap = 64
	visited := map[int]bool{head: true}

	var termW int32
	done := false
	for !done {
		opsEnd := end
		if termPC >= 0 {
			opsEnd = termPC
		}
		for pc := head; pc < opsEnd; {
			if in := &code[pc]; in.fuse >= 0 {
				fi := &sb.dm.fused[in.fuse]
				if fi.op == fLLCmpBr || fi.op == fLCCmpBr {
					// A fused compare-and-branch whose branch is this
					// segment's terminator becomes the terminator itself
					// (it reads locals only, so post-flush it is a valid
					// entry point).
					if termPC >= 0 && pc+int(fi.n)-1 == termPC {
						done = true
						sb.flush()
						sb.entry(pc)
						seg.term = compileFusedBranch(cm, fi, pc)
						termW = int32(fi.n)
						break
					}
				} else if pc+int(fi.n) <= opsEnd {
					sb.entry(pc)
					if sb.addFused(fi, pc) {
						pc += int(fi.n)
						continue
					}
				}
			}
			sb.entry(pc)
			sb.addPlain(pc)
			pc++
		}
		if done {
			break
		}
		if termPC >= 0 {
			if code[termPC].op == dGoto {
				if tgt := int(code[termPC].a); int(sb.wAcc) < mergeCap && !visited[tgt] {
					// The goto disappears into an eager charge (it is
					// infallible and has no effect beyond control flow);
					// deferred thunks stay deferred across it.
					sb.entry(termPC)
					sb.charge(1)
					visited[tgt] = true
					nb := blocks[cm.segOf[tgt]]
					head, end, termPC = nb.head, nb.end, nb.term
					continue
				}
			}
			seg.term, termW = sb.compileTerm(termPC)
		} else {
			if int(sb.wAcc) < mergeCap && !visited[end] {
				// Fallthrough merge: no instruction executes at the
				// boundary, translation just continues at the join.
				visited[end] = true
				nb := blocks[cm.segOf[end]]
				head, end, termPC = nb.head, nb.end, nb.term
				continue
			}
			// Fallthrough into the next leader (weight 0: no instruction
			// executes at the boundary).
			sb.flush()
			next := cm.segOf[end]
			endPC := int32(end)
			seg.term = func(v *VM, t *fthread, f *fframe) (int32, error) {
				f.pc = endPC
				return next, nil
			}
		}
		break
	}
	seg.ops = sb.ops
	seg.wbefore = sb.wb
	seg.termW = termW
	seg.n = sb.wAcc + termW
}

// compileBarrier bakes one store site's barrier decision into a closure.
// This is the tier's reason to exist: a site whose (flavor-projected)
// verdict is pre-null or null-or-same compiles to its instrumentation
// counters and nothing else — no spec dispatch, no marking-phase check,
// no logger — and under a flavor that shades nothing (no-barrier) every
// site drops to the same raw path. The site verdicts were projected
// through the flavor's soundness predicate at decode time, so a verdict
// the flavor cannot honor never reaches the raw path. Kept and
// rearrangement barriers route through the shared satb.BarrierSiteSpec
// with the running VM's spec, counters and logger, so cost, logging,
// shading, and card accounting stay bit-identical to the other engines.
// Site statistics stay lazily resolved so never-executed sites leave no
// trace, exactly like the fused engine. A store of a non-reference has no
// site and no barrier: nil.
func (sb *segBuilder) compileBarrier(isRef bool, site int32) cbarrier {
	if !isRef {
		return nil
	}
	elide := sb.d.sites[site].elide
	if elide == satb.ElidePreNull || elide == satb.ElideNullOrSame || sb.noShade {
		return func(v *VM, pre, newR, target heap.Ref) {
			st := v.siteStatsOf(site)
			st.Execs++
			if pre == heap.Null {
				st.PreNull++
			}
			if pre == heap.Null || pre == newR {
				st.NullOrSame++
			}
		}
	}
	return func(v *VM, pre, newR, target heap.Ref) {
		v.counters.BarrierSiteSpec(v.spec, v.logger(), v.siteStatsOf(site), elide, pre, newR, target)
	}
}

// ---------------------------------------------------------------------
// Producers (thunks)
// ---------------------------------------------------------------------

func constThunk(val value) thunk {
	return thunk{
		ev:      func(v *VM, t *fthread, f *fframe) (value, error) { return val, nil },
		isConst: true, pure: true, cv: val,
	}
}

func loadThunk(a int32) thunk {
	return thunk{
		ev:      func(v *VM, t *fthread, f *fframe) (value, error) { return f.locals[a], nil },
		w:       1,
		pure:    true,
		isLocal: true, local: a,
	}
}

// getStaticThunk reads the static in storage slot of the running VM's heap.
func getStaticThunk(slot int32, isRef bool) thunk {
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			return load(*v.heap.Static(int(slot)), isRef), nil
		},
		w: 1, pure: true,
	}
}

func getFieldThunk(obj thunk, fr *fieldRec, isRef bool, pc int32) thunk {
	w := obj.w + 1
	if obj.isLocal {
		a := obj.local
		return thunk{
			ev: func(v *VM, t *fthread, f *fframe) (value, error) {
				objv := f.locals[a]
				p := v.heap.FieldSlot(objv.R, fr.idx)
				if p == nil {
					return objv, v.accessErr(f, pc, w, readField, objv.R, 0, fr)
				}
				return load(*p, isRef), nil
			},
			w: w, canFail: true,
		}
	}
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			objv, err := obj.ev(v, t, f)
			if err != nil {
				return objv, err
			}
			p := v.heap.FieldSlot(objv.R, fr.idx)
			if p == nil {
				return objv, v.accessErr(f, pc, w, readField, objv.R, 0, fr)
			}
			return load(*p, isRef), nil
		},
		w: w, canFail: true,
	}
}

func aaloadThunk(arr, idx thunk, isRef bool, pc int32) thunk {
	w := arr.w + idx.w + 1
	aw := arr.w
	if arr.isLocal && (idx.isLocal || idx.isConst) {
		ai := arr.local
		ii, ic, idxLocal := idx.local, idx.cv.I, idx.isLocal
		return thunk{
			ev: func(v *VM, t *fthread, f *fframe) (value, error) {
				arrv := f.locals[ai]
				i := ic
				if idxLocal {
					i = f.locals[ii].I
				}
				p := v.heap.ElemSlot(arrv.R, i)
				if p == nil {
					return arrv, v.accessErr(f, pc, w, loadElem, arrv.R, i, nil)
				}
				return load(*p, isRef), nil
			},
			w: w, canFail: true,
		}
	}
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			arrv, err := arr.ev(v, t, f)
			if err != nil {
				return arrv, err
			}
			idxv, err := idx.ev(v, t, f)
			if err != nil {
				v.opEntered += aw
				return idxv, err
			}
			p := v.heap.ElemSlot(arrv.R, idxv.I)
			if p == nil {
				return arrv, v.accessErr(f, pc, w, loadElem, arrv.R, idxv.I, nil)
			}
			return load(*p, isRef), nil
		},
		w: w, canFail: true,
	}
}

func arrayLengthThunk(arr thunk, pc int32) thunk {
	w := arr.w + 1
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			arrv, err := arr.ev(v, t, f)
			if err != nil {
				return arrv, err
			}
			n := v.heap.ArrayLen(arrv.R)
			if n < 0 {
				return arrv, v.accessErr(f, pc, w, lengthOf, arrv.R, 0, nil)
			}
			return intVal(n), nil
		},
		w: w, canFail: true,
	}
}

func newInstanceThunk(cls *bytecode.ClassSym) thunk {
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			r := v.heap.AllocObject(cls)
			v.allocSinceGC++
			return refVal(r), nil
		},
		w: 1,
	}
}

func newArrayThunk(n thunk, isRef bool, pc int32) thunk {
	w := n.w + 1
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			nv, err := n.ev(v, t, f)
			if err != nil {
				return nv, err
			}
			if uint64(nv.I) > maxArrayLen {
				return nv, v.cerr(f, pc, w, "%s", arraySizeFault(nv.I))
			}
			r := v.heap.AllocArray(isRef, nv.I)
			v.allocSinceGC++
			return refVal(r), nil
		},
		w: w, canFail: true,
	}
}

// arithThunk composes a binary integer operation (div/rem are the only
// fallible ones).
func arithThunk(op dop, a, b thunk, pc int32) thunk {
	w := a.w + b.w + 1
	aw := a.w
	var eval2 func(v *VM, t *fthread, f *fframe) (int64, int64, error)
	switch {
	case a.isLocal && b.isLocal:
		ai, bi := a.local, b.local
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			return f.locals[ai].I, f.locals[bi].I, nil
		}
	case a.isLocal && b.isConst:
		ai, bc := a.local, b.cv.I
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			return f.locals[ai].I, bc, nil
		}
	case a.isConst && b.isLocal:
		ac, bi := a.cv.I, b.local
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			return ac, f.locals[bi].I, nil
		}
	case a.isLocal:
		// A local is a pure read: deferring it past b's evaluation is
		// unobservable, and an error in b still charges a's weight.
		ai, evB := a.local, b.ev
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			bv, err := evB(v, t, f)
			if err != nil {
				v.opEntered += aw
				return 0, 0, err
			}
			return f.locals[ai].I, bv.I, nil
		}
	case b.isConst:
		evA, bc := a.ev, b.cv.I
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(v, t, f)
			return av.I, bc, err
		}
	case b.isLocal:
		evA, bi := a.ev, b.local
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(v, t, f)
			return av.I, f.locals[bi].I, err
		}
	default:
		evA, evB := a.ev, b.ev
		eval2 = func(v *VM, t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(v, t, f)
			if err != nil {
				return 0, 0, err
			}
			bv, err := evB(v, t, f)
			if err != nil {
				v.opEntered += aw
				return 0, 0, err
			}
			return av.I, bv.I, nil
		}
	}
	var ev cval
	canFail := a.canFail || b.canFail
	switch op {
	case dAdd:
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(x + y), err
		}
	case dSub:
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(x - y), err
		}
	case dMul:
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(x * y), err
		}
	case dAnd:
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(x & y), err
		}
	case dOr:
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(x | y), err
		}
	case dDiv, dRem:
		canFail = true
		isDiv := op == dDiv
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			if err != nil {
				return value{}, err
			}
			if y == 0 {
				return value{}, v.cerr(f, pc, w, "division by zero")
			}
			if isDiv {
				return intVal(x / y), nil
			}
			return intVal(x % y), nil
		}
	default: // comparisons
		cmp := op
		ev = func(v *VM, t *fthread, f *fframe) (value, error) {
			x, y, err := eval2(v, t, f)
			return intVal(b2i(intCmp(cmp, x, y))), err
		}
	}
	return thunk{ev: ev, w: w, canFail: canFail, pure: a.pure && b.pure && !canFail}
}

func refCmpThunk(eq bool, a, b thunk) thunk {
	if a.isLocal && b.isLocal {
		ai, bi := a.local, b.local
		return thunk{
			ev: func(v *VM, t *fthread, f *fframe) (value, error) {
				return intVal(b2i((f.locals[ai].R == f.locals[bi].R) == eq)), nil
			},
			w: a.w + b.w + 1, pure: true,
		}
	}
	aw := a.w
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			av, err := a.ev(v, t, f)
			if err != nil {
				return av, err
			}
			bv, err := b.ev(v, t, f)
			if err != nil {
				v.opEntered += aw
				return bv, err
			}
			return intVal(b2i((av.R == bv.R) == eq)), nil
		},
		w: a.w + b.w + 1, canFail: a.canFail || b.canFail, pure: a.pure && b.pure,
	}
}

func unaryThunk(op dop, x thunk) thunk {
	return thunk{
		ev: func(v *VM, t *fthread, f *fframe) (value, error) {
			xv, err := x.ev(v, t, f)
			if err != nil {
				return xv, err
			}
			if op == dNeg {
				return intVal(-xv.I), nil
			}
			return intVal(1 - xv.I), nil
		},
		w: x.w + 1, canFail: x.canFail, pure: x.pure,
	}
}

// ---------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------

// stackOperands[k] are a consumer's k operands when they sit on the real
// operand stack: operand i of k is f.stack[f.sp-k+i]. The reference
// interpreter pops them last-first, a composer evaluates first-last, so all
// but the last are reads in place and the last also releases the k slots.
// They are weight-0 (charged when pushed) and infallible, but impure: like
// any impure thunk they must be evaluated exactly once and in order, which
// every composer already guarantees for side effects. Built once — handing
// them out allocates nothing at translation time.
var stackOperands = [...][]thunk{
	1: {stackPop(1)},
	2: {stackPeek(2), stackPop(2)},
	3: {stackPeek(3), stackPeek(2), stackPop(3)},
}

func stackPeek(depth int32) thunk {
	return thunk{ev: func(v *VM, t *fthread, f *fframe) (value, error) { return f.stack[f.sp-depth], nil }}
}

func stackPop(k int32) thunk {
	return thunk{ev: func(v *VM, t *fthread, f *fframe) (value, error) {
		f.sp -= k
		return f.stack[f.sp+k-1], nil
	}}
}

// operands removes a consumer's k operands, in evaluation order: the top k
// deferred thunks when take allows composing them, otherwise — take has
// then materialized everything — the top k slots of the real stack.
func (sb *segBuilder) operands(k int) []thunk {
	if ths, ok := sb.take(k); ok {
		return ths
	}
	return stackOperands[k]
}

// operand is operands for a single-operand consumer.
func (sb *segBuilder) operand() thunk { return sb.operands(1)[0] }

// termOperand is operand for the terminator at pc. A deferred operand is
// composed into the terminator, so pc is no entry point (the operand's
// producers are part of the terminator); deeper constants are materialized
// for the successor. An operand on the real stack leaves the terminator
// resumable at pc like any other instruction boundary.
func (sb *segBuilder) termOperand(pc int) thunk {
	if ths, ok := sb.take(1); ok {
		th := ths[0]
		sb.flush()
		return th
	}
	sb.entry(pc)
	return stackOperands[1][0]
}

func storeOp(a int32, val thunk) cop {
	if val.isLocal {
		b := val.local
		return func(v *VM, t *fthread, f *fframe) error {
			f.locals[a] = f.locals[b]
			return nil
		}
	}
	return func(v *VM, t *fthread, f *fframe) error {
		valv, err := val.ev(v, t, f)
		if err != nil {
			return err
		}
		f.locals[a] = valv
		return nil
	}
}

func printOp(val thunk) cop {
	return func(v *VM, t *fthread, f *fframe) error {
		valv, err := val.ev(v, t, f)
		if err != nil {
			return err
		}
		v.output = append(v.output, valv.I)
		return nil
	}
}

// discardOp evaluates a fallible/impure deferred thunk for its effects
// (dPop of something that can fail must still fail there).
func discardOp(val thunk) cop {
	return func(v *VM, t *fthread, f *fframe) error {
		_, err := val.ev(v, t, f)
		return err
	}
}

func putFieldOp(obj, val thunk, fr *fieldRec, barrier cbarrier, pc int32) cop {
	w := obj.w + val.w + 1
	ow := obj.w
	if obj.isLocal && (val.isLocal || val.isConst) {
		oi := obj.local
		vi, vc, valLocal := val.local, val.cv, val.isLocal
		return func(v *VM, t *fthread, f *fframe) error {
			objv := f.locals[oi]
			valv := vc
			if valLocal {
				valv = f.locals[vi]
			}
			p := v.heap.FieldSlot(objv.R, fr.idx)
			if p == nil {
				return v.accessErr(f, pc, w, writeField, objv.R, 0, fr)
			}
			put(v, p, valv, barrier, objv.R)
			return nil
		}
	}
	if obj.isLocal {
		oi := obj.local
		evV := val.ev
		return func(v *VM, t *fthread, f *fframe) error {
			valv, err := evV(v, t, f)
			if err != nil {
				v.opEntered += ow
				return err
			}
			objv := f.locals[oi]
			p := v.heap.FieldSlot(objv.R, fr.idx)
			if p == nil {
				return v.accessErr(f, pc, w, writeField, objv.R, 0, fr)
			}
			put(v, p, valv, barrier, objv.R)
			return nil
		}
	}
	return func(v *VM, t *fthread, f *fframe) error {
		objv, err := obj.ev(v, t, f)
		if err != nil {
			return err
		}
		valv, err := val.ev(v, t, f)
		if err != nil {
			v.opEntered += ow
			return err
		}
		p := v.heap.FieldSlot(objv.R, fr.idx)
		if p == nil {
			return v.accessErr(f, pc, w, writeField, objv.R, 0, fr)
		}
		put(v, p, valv, barrier, objv.R)
		return nil
	}
}

// put stores x in heap slot p of target; a reference store (barrier
// non-nil) then runs its barrier.
func put(v *VM, p *heap.Value, x value, barrier cbarrier, target heap.Ref) {
	if barrier == nil {
		*p = heap.IntVal(x.I)
		return
	}
	old := heap.Ref(*p)
	*p = heap.RefVal(x.R)
	barrier(v, old, x.R, target)
}

// putStaticOp writes the static in storage slot of the running VM's heap,
// through the VM's static barrier when the static holds a reference.
func putStaticOp(slot int32, isRef bool, val thunk) cop {
	if !isRef {
		return func(v *VM, t *fthread, f *fframe) error {
			valv, err := val.ev(v, t, f)
			if err != nil {
				return err
			}
			*v.heap.Static(int(slot)) = word(valv, false)
			return nil
		}
	}
	return func(v *VM, t *fthread, f *fframe) error {
		valv, err := val.ev(v, t, f)
		if err != nil {
			return err
		}
		p := v.heap.Static(int(slot))
		old := heap.Ref(*p)
		*p = word(valv, true)
		v.counters.StaticBarrierSpec(v.spec, v.logger(), old, valv.R)
		return nil
	}
}

func arrayStoreOp(arr, idx, val thunk, barrier cbarrier, pc int32) cop {
	w := arr.w + idx.w + val.w + 1
	aw, iw := arr.w, idx.w
	return func(v *VM, t *fthread, f *fframe) error {
		arrv, err := arr.ev(v, t, f)
		if err != nil {
			return err
		}
		idxv, err := idx.ev(v, t, f)
		if err != nil {
			v.opEntered += aw
			return err
		}
		valv, err := val.ev(v, t, f)
		if err != nil {
			v.opEntered += aw + iw
			return err
		}
		p := v.heap.ElemSlot(arrv.R, idxv.I)
		if p == nil {
			return v.accessErr(f, pc, w, storeElem, arrv.R, idxv.I, nil)
		}
		put(v, p, valv, barrier, arrv.R)
		return nil
	}
}

// ---------------------------------------------------------------------
// Per-instruction translation
// ---------------------------------------------------------------------

// addPlain translates one plain decoded instruction into the builder:
// producers defer as thunks, consumers compose or fall back to
// stack-consuming ops, stack shuffles materialize as needed.
func (sb *segBuilder) addPlain(pc int) {
	dm := sb.dm
	in := &dm.code[pc]
	pcc := int32(pc)
	switch in.op {
	case dNop:
		sb.charge(1)
	case dConst:
		sb.push(constThunk(intVal(in.imm)))
		sb.charge(1)
	case dConstNull:
		sb.push(constThunk(nullVal()))
		sb.charge(1)
	case dLoad:
		sb.push(loadThunk(in.a))
	case dGetStaticRef, dGetStaticInt:
		sb.push(getStaticThunk(dm.statics[in.a], in.op == dGetStaticRef))
	case dGetFieldRef, dGetFieldInt:
		sb.push(getFieldThunk(sb.operand(), &dm.fields[in.a], in.op == dGetFieldRef, pcc))
	case dAALoad, dIALoad:
		ths := sb.operands(2)
		sb.push(aaloadThunk(ths[0], ths[1], in.op == dAALoad, pcc))
	case dArrayLength:
		sb.push(arrayLengthThunk(sb.operand(), pcc))
	case dNewInstance:
		sb.push(newInstanceThunk(dm.allocs[in.a]))
	case dNewArrayRef, dNewArrayInt:
		sb.push(newArrayThunk(sb.operand(), in.op == dNewArrayRef, pcc))
	case dAdd, dSub, dMul, dDiv, dRem, dAnd, dOr,
		dCmpEQ, dCmpNE, dCmpLT, dCmpLE, dCmpGT, dCmpGE:
		ths := sb.operands(2)
		sb.push(arithThunk(in.op, ths[0], ths[1], pcc))
	case dRefEQ, dRefNE:
		ths := sb.operands(2)
		sb.push(refCmpThunk(in.op == dRefEQ, ths[0], ths[1]))
	case dNeg, dNot:
		sb.push(unaryThunk(in.op, sb.operand()))

	case dDup:
		if n := len(sb.sym); n > 0 && sb.sym[n-1].isConst {
			sb.push(constThunk(sb.sym[n-1].cv))
			sb.charge(1)
		} else {
			sb.flush()
			sb.appendOp(func(v *VM, t *fthread, f *fframe) error {
				f.push(f.stack[f.sp-1])
				return nil
			}, 1)
		}
	case dPop:
		if n := len(sb.sym); n > 0 {
			th := sb.sym[n-1]
			sb.sym = sb.sym[:n-1]
			if th.pure {
				sb.charge(th.w + 1)
			} else {
				sb.emit(discardOp(th), th.w+1)
			}
		} else {
			sb.appendOp(func(v *VM, t *fthread, f *fframe) error {
				f.sp--
				return nil
			}, 1)
		}

	case dStore:
		val := sb.operand()
		sb.emit(storeOp(in.a, val), val.w+1)
	case dPrint:
		val := sb.operand()
		sb.emit(printOp(val), val.w+1)
	case dPutFieldRef, dPutFieldInt:
		barrier := sb.compileBarrier(in.op == dPutFieldRef, in.b)
		ths := sb.operands(2)
		sb.emit(putFieldOp(ths[0], ths[1], &dm.fields[in.a], barrier, pcc), ths[0].w+ths[1].w+1)
	case dPutStaticRef, dPutStaticInt:
		val := sb.operand()
		sb.emit(putStaticOp(dm.statics[in.a], in.op == dPutStaticRef, val), val.w+1)
	case dAAStore, dIAStore:
		barrier := sb.compileBarrier(in.op == dAAStore, in.b)
		ths := sb.operands(3)
		sb.emit(arrayStoreOp(ths[0], ths[1], ths[2], barrier, pcc), ths[0].w+ths[1].w+ths[2].w+1)

	default:
		// Terminator ops never reach addPlain (compileSeg routes them to
		// the terminator builders); an unknown op would be a decode bug —
		// fail loudly at the instruction, like the reference engine.
		sb.emit(func(v *VM, t *fthread, f *fframe) error {
			return v.cerr(f, pcc, 1, "compiled tier: unexpected opcode at pc %d", pcc)
		}, 1)
	}
}

// localOperand is a local-load operand handed straight to a composer's
// leaf shape, which reads f.locals itself: unlike loadThunk it carries no
// ev closure, so it must never reach the symbolic stack.
func localOperand(a int32) thunk {
	return thunk{w: 1, pure: true, isLocal: true, local: a}
}

// addFused translates one non-branch fused superinstruction, preserving
// execFused's error pcs and all-steps-credited-up-front accounting (fused
// patterns only fail at their final component). The field/array access
// families are the local-operand leaf shapes of the plain composers, whose
// error pc is the family's final component and whose weight is its span.
// Returns false for forms the caller should fall back to plain
// per-instruction translation on.
func (sb *segBuilder) addFused(fi *finstr, pc int) bool {
	pcc := int32(pc)
	n := int32(fi.n)
	switch fi.op {
	case fLGetFieldRef, fLGetFieldInt:
		sb.push(getFieldThunk(localOperand(fi.a), &sb.dm.fields[fi.b], fi.op == fLGetFieldRef, pcc+1))
	case fLLAALoad, fLLIALoad:
		sb.push(aaloadThunk(localOperand(fi.a), localOperand(fi.b), fi.op == fLLAALoad, pcc+2))
	case fLLArith:
		a, b, aop := fi.a, fi.b, dop(fi.c)
		sb.push(thunk{
			ev: func(v *VM, t *fthread, f *fframe) (value, error) {
				return intVal(arith(aop, f.locals[a].I, f.locals[b].I)), nil
			},
			w: n, pure: true,
		})
	case fLCArith:
		a, aop, imm := fi.a, dop(fi.c), fi.imm
		sb.push(thunk{
			ev: func(v *VM, t *fthread, f *fframe) (value, error) {
				return intVal(arith(aop, f.locals[a].I, imm)), nil
			},
			w: n, pure: true,
		})

	case fIncLocal:
		src, dst, aop, imm := fi.a, fi.b, dop(fi.c), fi.imm
		sb.emit(func(v *VM, t *fthread, f *fframe) error {
			f.locals[dst] = intVal(arith(aop, f.locals[src].I, imm))
			return nil
		}, n)
	case fConstStore:
		dst, imm := fi.b, fi.imm
		sb.emit(func(v *VM, t *fthread, f *fframe) error {
			f.locals[dst] = intVal(imm)
			return nil
		}, n)
	case fLLPutFieldRef, fLLPutFieldInt:
		barrier := sb.compileBarrier(fi.op == fLLPutFieldRef, fi.site)
		sb.emit(putFieldOp(localOperand(fi.a), localOperand(fi.b), &sb.dm.fields[fi.c], barrier, pcc+2), n)
	case fLLLAAStore, fLLLIAStore:
		a, b, c := fi.a, fi.b, fi.c
		barrier := sb.compileBarrier(fi.op == fLLLAAStore, fi.site)
		sb.emit(func(v *VM, t *fthread, f *fframe) error {
			arr := f.locals[a]
			idx := f.locals[b].I
			val := f.locals[c]
			p := v.heap.ElemSlot(arr.R, idx)
			if p == nil {
				return v.accessErr(f, pcc+3, n, storeElem, arr.R, idx, nil)
			}
			put(v, p, val, barrier, arr.R)
			return nil
		}, n)
	default:
		return false
	}
	return true
}

// ---------------------------------------------------------------------
// Terminators
// ---------------------------------------------------------------------

// compileFusedBranch translates a fused compare-and-branch terminator
// with both edges resolved to segment indices.
func compileFusedBranch(cm *cmethod, fi *finstr, pc int) cterm {
	target := fi.d
	tsi := cm.segOf[fi.d]
	fallPC := int32(pc + int(fi.n))
	fsi := cm.segOf[pc+int(fi.n)]
	wantTrue := fi.e != 0
	cmp := dop(fi.c)
	a := fi.a
	if fi.op == fLLCmpBr {
		b := fi.b
		return func(v *VM, t *fthread, f *fframe) (int32, error) {
			if intCmp(cmp, f.locals[a].I, f.locals[b].I) == wantTrue {
				f.pc = target
				return tsi, nil
			}
			f.pc = fallPC
			return fsi, nil
		}
	}
	imm := fi.imm
	return func(v *VM, t *fthread, f *fframe) (int32, error) {
		if intCmp(cmp, f.locals[a].I, imm) == wantTrue {
			f.pc = target
			return tsi, nil
		}
		f.pc = fallPC
		return fsi, nil
	}
}

// compileInvoke builds the call at pc. Arguments still deferred are
// evaluated straight into the callee frame — the push-then-pop round trip
// through the caller's operand stack disappears — and the ones beneath
// them, already materialized (a nested call's return value, say), are
// copied off the real stack; with nothing deferred that is all of them and
// the call is a resumable entry point. Argument order and error charging
// follow the flush protocol (left to right, prefix weights added on a later
// argument's failure; fallible arguments charge themselves through
// opEntered). Stack operands were charged when pushed, so the terminator's
// weight covers only the deferred ones.
func (sb *segBuilder) compileInvoke(pc int32) (cterm, int32) {
	cr := &sb.dm.callees[sb.dm.code[pc].a]
	n := int(cr.m.numArgs)
	ths := sb.sym
	if len(ths) > n {
		// Deeper deferred thunks belong to whatever consumes this
		// call's result (an outer call's earlier operands, usually):
		// materialize only those and keep the top n composed.
		sb.sym, ths = ths[:len(ths)-n], ths[len(ths)-n:]
		sb.flush()
	}
	sb.sym = nil
	if len(ths) == 0 {
		sb.entry(int(pc))
	}
	stackN := int32(n - len(ths))
	offs := prefixWeights(ths)
	w := int32(1)
	for i := range ths {
		w += ths[i].w
	}
	return func(v *VM, t *fthread, f *fframe) (int32, error) {
		callee := cr.m
		// Calls made from compiled code still heat their callee, so a
		// method whose only callers are compiled can itself tier up.
		v.tierBump(callee)
		nf := v.acquire(callee)
		for i := range ths {
			av, err := ths[i].ev(v, t, f)
			if err != nil {
				v.release(nf)
				v.opEntered += offs[i]
				return termToDriver, err
			}
			nf.locals[int(stackN)+i] = av
		}
		f.sp -= stackN
		copy(nf.locals[:stackN], f.stack[f.sp:f.sp+stackN])
		if !callee.static && nf.locals[0].R == heap.Null {
			v.release(nf)
			return termToDriver, v.cerr(f, pc, w, "null receiver calling %s", f.m.pool.At(cr.ref))
		}
		f.pc = pc + 1
		t.frames = append(t.frames, nf)
		return termSwitchFrame, nil
	}, w
}

// compileTerm translates the explicit terminator instruction at pc and
// returns it with its weight. A branch, return-value or spawn takes its one
// operand through termOperand, deferred or on the real stack alike; a
// deferred operand may be fallible — it charges itself through opEntered
// and the segment runner adds the prefix before the terminator.
func (sb *segBuilder) compileTerm(pc int) (cterm, int32) {
	in := &sb.dm.code[pc]
	pcc := int32(pc)
	switch in.op {
	case dIfTrue, dIfFalse, dIfNull, dIfNonNull:
		th := sb.termOperand(pc)
		op := in.op
		target := in.a
		tsi := sb.cm.segOf[in.a]
		fsi := sb.cm.segOf[pc+1]
		return func(v *VM, t *fthread, f *fframe) (int32, error) {
			cond, err := th.ev(v, t, f)
			if err != nil {
				return termToDriver, err
			}
			var taken bool
			switch op {
			case dIfTrue:
				taken = cond.I != 0
			case dIfFalse:
				taken = cond.I == 0
			case dIfNull:
				taken = cond.R == heap.Null
			default:
				taken = cond.R != heap.Null
			}
			if taken {
				f.pc = target
				return tsi, nil
			}
			f.pc = pcc + 1
			return fsi, nil
		}, th.w + 1
	case dReturnValue:
		th := sb.termOperand(pc)
		return func(v *VM, t *fthread, f *fframe) (int32, error) {
			rv, err := th.ev(v, t, f)
			if err != nil {
				return termToDriver, err
			}
			t.frames = t.frames[:len(t.frames)-1]
			v.release(f)
			if len(t.frames) > 0 {
				t.frames[len(t.frames)-1].push(rv)
			}
			return termSwitchFrame, nil
		}, th.w + 1
	case dSpawn:
		th := sb.termOperand(pc)
		w := th.w + 1
		cr := &sb.dm.callees[in.a]
		return func(v *VM, t *fthread, f *fframe) (int32, error) {
			recv, err := th.ev(v, t, f)
			if err != nil {
				return termToDriver, err
			}
			if recv.R == heap.Null {
				return termToDriver, v.cerr(f, pcc, w, "null receiver in spawn")
			}
			nf := v.acquire(cr.m)
			nf.locals[0] = recv
			v.fthreads = append(v.fthreads, &fthread{id: len(v.fthreads), frames: []*fframe{nf}, span: threadSpan(len(v.fthreads))})
			f.pc = pcc + 1
			return termSpawned, nil
		}, w
	case dInvoke:
		return sb.compileInvoke(pcc)
	}

	// The rest take nothing deferred: everything is materialized and the
	// terminator is a resumable entry point.
	sb.flush()
	sb.entry(pc)
	var term cterm
	switch in.op {
	case dGoto:
		target := in.a
		tsi := sb.cm.segOf[in.a]
		term = func(v *VM, t *fthread, f *fframe) (int32, error) {
			f.pc = target
			return tsi, nil
		}
	case dReturn:
		term = func(v *VM, t *fthread, f *fframe) (int32, error) {
			t.frames = t.frames[:len(t.frames)-1]
			v.release(f)
			return termSwitchFrame, nil
		}
	default: // dTrap
		term = func(v *VM, t *fthread, f *fframe) (int32, error) {
			return termToDriver, v.cerr(f, pcc, 1, "missing return value")
		}
	}
	return term, 1
}
