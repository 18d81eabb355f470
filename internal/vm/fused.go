package vm

import (
	"errors"
	"fmt"

	"satbelim/internal/heap"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
)

// This file is the execution half of the pre-decoded engine. It mirrors
// the reference switch interpreter instruction for instruction — same
// step accounting, same thread rotation and collector steps at the same
// instructions, same error strings and error pcs, same barrier/oracle call
// order — so results are bit-identical. The wins are structural: operands
// resolved at decode time, pooled frames, an explicit stack pointer instead
// of slice reslicing, and superinstructions that collapse the hottest 2–4
// instruction sequences into one dispatch.

// fframe is a pooled activation record. stack is used with an explicit
// stack pointer (sp) and grows on demand, so unverified programs with an
// understated MaxStack behave like the baseline's append-based stack.
type fframe struct {
	m      *dmethod
	pc     int32
	sp     int32
	locals []value
	stack  []value
}

func (f *fframe) push(val value) {
	if int(f.sp) == len(f.stack) {
		f.stack = append(f.stack, value{})
	}
	f.stack[f.sp] = val
	f.sp++
}

func (f *fframe) pop() value {
	f.sp--
	return f.stack[f.sp]
}

// fthread is one cooperative thread of the fused engine.
type fthread struct {
	id     int
	frames []*fframe
	done   bool
	// span is the thread's observability lane span (inert when tracing
	// is disabled).
	span obs.Span
}

// ferrf builds a RuntimeError at the frame's current pc.
func (v *VM) ferrf(f *fframe, format string, args ...any) error {
	return &RuntimeError{Method: f.m.name, PC: int(f.pc), Line: int(f.m.code[f.pc].line), Msg: fmt.Sprintf(format, args...)}
}

// refStoreBarrier runs the oracle check and the write barrier for one
// reference store, identical in order and observable effect to the switch
// interpreter's putfield/aastore tail.
func (v *VM) refStoreBarrier(t *fthread, f *fframe, pc int, kind satb.SiteKind, site int32, pre, newR, target heap.Ref) error {
	rec := &v.dprog.sites[site]
	if v.oracle != nil {
		if err := v.oracle.checkStore(f.m.name, pc, int(f.m.code[pc].line), t.id, kind, rec.elide, pre, newR, target); err != nil {
			return err
		}
	}
	v.counters.BarrierSiteSpec(v.spec, v.logger(), v.siteStatsOf(site), rec.elide, pre, newR, target)
	return nil
}

// siteStatsOf returns the VM's counters for a site, creating them on the
// site's first execution.
func (v *VM) siteStatsOf(site int32) *satb.SiteStats {
	st := v.siteStats[site]
	if st == nil {
		rec := &v.dprog.sites[site]
		st = v.counters.Site(rec.key, rec.kind, rec.elide)
		v.siteStats[site] = st
	}
	return st
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

// errSpawned is not a failure: stepFused returns it after a spawn has
// executed in full, telling the turn body to cut its bound back with
// spawnClamp. It rides on the error result so that the instructions that do
// not spawn — all but a handful per run — pay nothing for the signal.
var errSpawned = errors.New("vm: thread spawned")

// spawnClamp is the bound of a turn in which a spawn has just executed as
// its done-th base instruction: the end of the quantum in progress, counted
// from the turn's start, so the new thread's first quantum starts at exactly
// the step it would without coalescing.
func (v *VM) spawnClamp(done int) int {
	q := v.cfg.Quantum
	return (done + q - 1) / q * q
}

// runDecoded executes the program on a decoded engine: quantum is that
// engine's per-turn body (runFusedQuantum or runTieredQuantum), the only
// thing the two differ in. The loop shape is the switch engine's —
// round-robin over live threads, collector tick after every turn — except
// that a turn covers horizon() base instructions instead of one quantum, so
// quantum boundaries nothing can observe are not visited.
func (v *VM) runDecoded(quantum func(t *fthread, limit int) error) (*Result, error) {
	v.fthreads = []*fthread{{frames: []*fframe{v.acquire(v.dprog.main)}, span: threadSpan(0)}}
	if v.cfg.ForceMarkingAlways && v.marker != nil {
		v.startCycle()
	}

	q := int64(v.cfg.Quantum)
	for {
		live := 0
		for _, t := range v.fthreads {
			if !t.done {
				live++
			}
		}
		if live == 0 {
			break
		}
		for _, t := range v.fthreads {
			if t.done {
				continue
			}
			if err := v.cancelled(); err != nil {
				return nil, err
			}
			limit, before, nthreads := v.horizon(live), v.steps, len(v.fthreads)
			if err := quantum(t, limit); err != nil {
				return nil, err
			}
			v.schedTurns++
			if ran := v.steps - before; ran > q {
				v.schedSkipped += (ran - 1) / q
			}
			live += len(v.fthreads) - nthreads
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

// runFusedQuantum executes up to limit base instructions on one thread
// (limit is a multiple of Quantum, see horizon). A superinstruction covering
// n base instructions executes only when all n fit in both the remaining
// quantum and the remaining instruction budget; otherwise the plain per-pc
// instructions run, so thread rotation and budget exhaustion happen at
// exactly the same instruction as in the reference engine.
func (v *VM) runFusedQuantum(t *fthread, limit int) error {
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
		in := &f.m.code[f.pc]
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

// stepFused executes one plain decoded instruction. It is the switch
// interpreter's step() over the resolved form.
func (v *VM) stepFused(t *fthread, f *fframe, in *dinstr) error {
	v.steps++

	switch in.op {
	case dNop:
	case dConst:
		f.push(intVal(in.imm))
	case dConstNull:
		f.push(nullVal())
	case dLoad:
		f.push(f.locals[in.a])
	case dStore:
		f.locals[in.a] = f.pop()
	case dDup:
		f.push(f.stack[f.sp-1])
	case dPop:
		f.sp--
	case dAdd, dSub, dMul:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(arith(in.op, x, y)))
	case dDiv, dRem:
		y, x := f.pop().I, f.pop().I
		if y == 0 {
			return v.ferrf(f, "division by zero")
		}
		if in.op == dDiv {
			f.push(intVal(x / y))
		} else {
			f.push(intVal(x % y))
		}
	case dNeg:
		f.push(intVal(-f.pop().I))
	case dAnd:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(x & y))
	case dOr:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(x | y))
	case dNot:
		f.push(intVal(1 - f.pop().I))
	case dCmpEQ, dCmpNE, dCmpLT, dCmpLE, dCmpGT, dCmpGE:
		y, x := f.pop().I, f.pop().I
		f.push(intVal(b2i(intCmp(in.op, x, y))))
	case dRefEQ:
		y, x := f.pop().R, f.pop().R
		f.push(intVal(b2i(x == y)))
	case dRefNE:
		y, x := f.pop().R, f.pop().R
		f.push(intVal(b2i(x != y)))

	case dGoto:
		f.pc = in.a
		return nil
	case dIfTrue:
		if f.pop().I != 0 {
			f.pc = in.a
			return nil
		}
	case dIfFalse:
		if f.pop().I == 0 {
			f.pc = in.a
			return nil
		}
	case dIfNull:
		if f.pop().R == heap.Null {
			f.pc = in.a
			return nil
		}
	case dIfNonNull:
		if f.pop().R != heap.Null {
			f.pc = in.a
			return nil
		}

	case dGetFieldRef, dGetFieldInt:
		obj := f.pop()
		fr := &f.m.fields[in.a]
		p := v.heap.FieldSlot(obj.R, fr.idx)
		if p == nil {
			return v.accessErr(f, f.pc, 0, readField, obj.R, 0, fr)
		}
		f.push(load(*p, in.op == dGetFieldRef))
	case dPutFieldRef, dPutFieldInt:
		val := f.pop()
		obj := f.pop()
		fr := &f.m.fields[in.a]
		p := v.heap.FieldSlot(obj.R, fr.idx)
		if p == nil {
			return v.accessErr(f, f.pc, 0, writeField, obj.R, 0, fr)
		}
		old := heap.Ref(*p)
		*p = word(val, in.op == dPutFieldRef)
		if in.op == dPutFieldRef {
			if err := v.refStoreBarrier(t, f, int(f.pc), satb.FieldSite, in.b, old, val.R, obj.R); err != nil {
				return err
			}
		}
	case dGetStaticRef, dGetStaticInt:
		f.push(load(*v.heap.Static(int(f.m.statics[in.a])), in.op == dGetStaticRef))
	case dPutStaticRef:
		val := f.pop()
		p := v.heap.Static(int(f.m.statics[in.a]))
		old := heap.Ref(*p)
		*p = word(val, true)
		if v.oracle != nil {
			// Statics are globally reachable: the stored object (and
			// everything it reaches) is published.
			v.oracle.escape(val.R)
		}
		v.counters.StaticBarrierSpec(v.spec, v.logger(), old, val.R)
	case dPutStaticInt:
		*v.heap.Static(int(f.m.statics[in.a])) = word(f.pop(), false)

	case dNewInstance:
		r := v.heap.AllocObject(f.m.allocs[in.a])
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, f.m.name, int(f.pc), t.id)
		}
		f.push(refVal(r))
	case dNewArrayRef, dNewArrayInt:
		n := f.pop().I
		if uint64(n) > maxArrayLen {
			return v.ferrf(f, "%s", arraySizeFault(n))
		}
		r := v.heap.AllocArray(in.op == dNewArrayRef, n)
		v.allocSinceGC++
		if v.oracle != nil {
			v.oracle.noteAlloc(r, f.m.name, int(f.pc), t.id)
		}
		f.push(refVal(r))
	case dArrayLength:
		arr := f.pop()
		n := v.heap.ArrayLen(arr.R)
		if n < 0 {
			return v.accessErr(f, f.pc, 0, lengthOf, arr.R, 0, nil)
		}
		f.push(intVal(n))

	case dAALoad, dIALoad:
		idx := f.pop().I
		arr := f.pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.accessErr(f, f.pc, 0, loadElem, arr.R, idx, nil)
		}
		f.push(load(*p, in.op == dAALoad))
	case dAAStore, dIAStore:
		val := f.pop()
		idx := f.pop().I
		arr := f.pop()
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.accessErr(f, f.pc, 0, storeElem, arr.R, idx, nil)
		}
		old := heap.Ref(*p)
		*p = word(val, in.op == dAAStore)
		if in.op == dAAStore {
			if err := v.refStoreBarrier(t, f, int(f.pc), satb.ArraySite, in.b, old, val.R, arr.R); err != nil {
				return err
			}
		}

	case dInvoke:
		cr := &f.m.callees[in.a]
		callee := cr.m
		nf := v.acquire(callee)
		n := int32(callee.numArgs)
		base := f.sp - n
		copy(nf.locals[:n], f.stack[base:f.sp])
		f.sp = base
		if !callee.static && nf.locals[0].R == heap.Null {
			v.release(nf)
			return v.ferrf(f, "null receiver calling %s", f.m.pool.At(cr.ref))
		}
		f.pc++
		t.frames = append(t.frames, nf)
		return nil
	case dSpawn:
		recv := f.pop()
		if recv.R == heap.Null {
			return v.ferrf(f, "null receiver in spawn")
		}
		nf := v.acquire(f.m.callees[in.a].m)
		nf.locals[0] = recv
		if v.oracle != nil {
			// The receiver (and everything it reaches) becomes visible to
			// the spawned thread.
			v.oracle.escape(recv.R)
		}
		v.fthreads = append(v.fthreads, &fthread{id: len(v.fthreads), frames: []*fframe{nf}, span: threadSpan(len(v.fthreads))})
		f.pc++
		return errSpawned
	case dReturn:
		t.frames = t.frames[:len(t.frames)-1]
		v.release(f)
		return nil
	case dReturnValue:
		rv := f.pop()
		t.frames = t.frames[:len(t.frames)-1]
		v.release(f)
		if len(t.frames) > 0 {
			t.frames[len(t.frames)-1].push(rv)
		}
		return nil
	case dPrint:
		v.output = append(v.output, f.pop().I)
	case dTrap:
		return v.ferrf(f, "missing return value")
	}
	f.pc++
	return nil
}

// execFused executes one superinstruction covering fi.n base
// instructions. Steps are credited up front: every error a fused form can
// raise occurs at its final component, by which point the baseline would
// have counted all n components too. Error paths first move f.pc to the
// failing component so diagnostics match the reference engine exactly.
func (v *VM) execFused(t *fthread, f *fframe, fi *finstr) error {
	v.steps += int64(fi.n)
	v.fusedExecs++

	switch fi.op {
	case fLLCmpBr, fLCCmpBr:
		x := f.locals[fi.a].I
		y := fi.imm
		if fi.op == fLLCmpBr {
			y = f.locals[fi.b].I
		}
		if intCmp(dop(fi.c), x, y) == (fi.e != 0) {
			f.pc = fi.d
		} else {
			f.pc += int32(fi.n)
		}
	case fIncLocal:
		f.locals[fi.b] = intVal(arith(dop(fi.c), f.locals[fi.a].I, fi.imm))
		f.pc += 4
	case fLLArith:
		f.push(intVal(arith(dop(fi.c), f.locals[fi.a].I, f.locals[fi.b].I)))
		f.pc += 3
	case fLCArith:
		f.push(intVal(arith(dop(fi.c), f.locals[fi.a].I, fi.imm)))
		f.pc += 3
	case fConstStore:
		f.locals[fi.b] = intVal(fi.imm)
		f.pc += 2

	case fLGetFieldRef, fLGetFieldInt:
		obj := f.locals[fi.a]
		fr := &f.m.fields[fi.b]
		p := v.heap.FieldSlot(obj.R, fr.idx)
		if p == nil {
			return v.accessErr(f, f.pc+1, 0, readField, obj.R, 0, fr)
		}
		f.push(load(*p, fi.op == fLGetFieldRef))
		f.pc += 2
	case fLLPutFieldRef, fLLPutFieldInt:
		obj := f.locals[fi.a]
		val := f.locals[fi.b]
		fr := &f.m.fields[fi.c]
		p := v.heap.FieldSlot(obj.R, fr.idx)
		if p == nil {
			return v.accessErr(f, f.pc+2, 0, writeField, obj.R, 0, fr)
		}
		old := heap.Ref(*p)
		*p = word(val, fi.op == fLLPutFieldRef)
		if fi.op == fLLPutFieldRef {
			if err := v.refStoreBarrier(t, f, int(f.pc)+2, satb.FieldSite, fi.site, old, val.R, obj.R); err != nil {
				return err
			}
		}
		f.pc += 3

	case fLLAALoad, fLLIALoad:
		arr := f.locals[fi.a]
		idx := f.locals[fi.b].I
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.accessErr(f, f.pc+2, 0, loadElem, arr.R, idx, nil)
		}
		f.push(load(*p, fi.op == fLLAALoad))
		f.pc += 3
	case fLLLAAStore, fLLLIAStore:
		arr := f.locals[fi.a]
		idx := f.locals[fi.b].I
		val := f.locals[fi.c]
		p := v.heap.ElemSlot(arr.R, idx)
		if p == nil {
			return v.accessErr(f, f.pc+3, 0, storeElem, arr.R, idx, nil)
		}
		old := heap.Ref(*p)
		*p = word(val, fi.op == fLLLAAStore)
		if fi.op == fLLLAAStore {
			if err := v.refStoreBarrier(t, f, int(f.pc)+3, satb.ArraySite, fi.site, old, val.R, arr.R); err != nil {
				return err
			}
		}
		f.pc += 4
	}
	return nil
}

// arith evaluates the fusible arithmetic ops.
func arith(op dop, x, y int64) int64 {
	switch op {
	case dAdd:
		return x + y
	case dSub:
		return x - y
	default:
		return x * y
	}
}

// intCmp evaluates the integer comparisons.
func intCmp(op dop, x, y int64) bool {
	switch op {
	case dCmpEQ:
		return x == y
	case dCmpNE:
		return x != y
	case dCmpLT:
		return x < y
	case dCmpLE:
		return x <= y
	case dCmpGT:
		return x > y
	default:
		return x >= y
	}
}
