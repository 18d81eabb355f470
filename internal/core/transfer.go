package core

import (
	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
)

// The transfer functions of §2.4 (field analysis), §3.3 (array analysis)
// and the §4.3 extensions: how one instruction changes an abstract state,
// and what it proves about a store site on the way. Nothing here iterates,
// merges or budgets — that is the engine's job (analysis.go) — so this file
// imports only the program representation and the integer domain.

// transfer is what the transfer functions read besides the state they
// transform: the method and its indexes, the options that change a
// transfer function, and the callee summaries.
type transfer struct {
	m     *bytecode.Method
	opts  Options
	namer intval.Namer

	// syms numbers the program's fields and methods and methodIndex holds
	// the method's Body — its graph and the number of each instruction's
	// operand — and its references (all shared with every other analysis of
	// the build); slots is the index space of this analysis's states.
	syms *bytecode.Symbols
	methodIndex
	slots *slotTable

	*simBuffers

	// siteLenConst is, per pc, 1 + the symbol naming the unknown allocation
	// length of the newarray site there: 0 until minted on first use, so the
	// namer numbers it where the fixed point first needs it, and stable
	// across the fixed point after that.
	siteLenConst []intval.ConstU

	// rt is the block-local rearrangement detector, set only while judging
	// with Options.Rearrange.
	rt *rearrangeTracker

	// summaries, when non-nil, refines invoke escape effects.
	summaries Summaries
	// rec, when non-nil, puts the transfer functions in summary mode (see
	// summaryRecorder).
	rec *summaryRecorder

	// everNL accumulates every reference that enters NL in any state, for
	// the flow-insensitive-escape ablation and the summaries.
	everNL RefSet
}

// simBuffers are simulate's successor list and invoke-argument buffers,
// reused across blocks and, being the worker's, across methods.
type simBuffers struct {
	targets []int
	args    []Value
}

// judgment is the output of one judging pass over a method: the verdict
// each store site earned, by pc, and how many call sites were judged with
// a summary in hand (freshReturns: the subset modeled as allocations). The
// engine hands the transfer functions one on the final pass — each
// reachable block exactly once, so the counts are deterministic — and nil
// while iterating.
type judgment struct {
	verdicts     []bytecode.Verdict
	summaryCalls int
	freshReturns int
}

// earn records verdict v for the site at pc. A site keeps the strongest
// verdict it earns, in whatever order they arrive (the swap detector
// reports after a block's stores were judged one by one).
func (j *judgment) earn(pc int, v bytecode.Verdict) {
	if v > j.verdicts[pc] {
		j.verdicts[pc] = v
	}
}

// sigmaDefault is the value an absent σ entry denotes for a field of r:
// the allocation default (null / 0) — except in summary mode for
// non-unique arguments and contents references, whose untracked fields
// hold unknown caller-provided values (the contents reference for
// reference fields, ⊤ for integers). Without the contents abstraction a
// callee could read arg.f, publish it, and the summary would never learn
// that the argument's reachable objects escaped.
func (t *transfer) sigmaDefault(r RefID, wantInt bool) Value {
	if t.rec != nil {
		if cr, ok := t.rec.contentRef(r); ok {
			if wantInt {
				return TopInt()
			}
			return RefValue(SingletonRef(cr))
		}
	}
	if wantInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// fieldValue is lookup(σ, r, NL, f) honoring the summary-mode contents
// abstraction for absent entries.
func (t *transfer) fieldValue(s *state, r RefID, f fieldID, wantInt bool) Value {
	if t.rec != nil && !s.nl.Has(r) {
		if _, ok := t.rec.contentRef(r); ok {
			if _, has := s.sigmaGet(r, f); !has {
				return t.sigmaDefault(r, wantInt)
			}
		}
	}
	return s.lookup(r, f, wantInt)
}

// weakStore is the weak update σ(r, f) ⊔= val, an absent entry standing
// for the field's default.
func (t *transfer) weakStore(s *state, r RefID, f fieldID, val Value, wantInt bool) {
	old, ok := s.sigmaGet(r, f)
	if !ok {
		old = t.sigmaDefault(r, wantInt)
	}
	s.sigmaSet(r, f, weakMergeValue(old, val))
}

// invalidateField drops the caller's σ facts about one callee-written
// reference field of the passed argument's referents: the entry joins
// with {GlobalRef} ("possibly rewritten with something unknown"), and a
// dirtied $elems additionally kills the null-range facts the array
// analysis relies on. Thread-locality of the referents survives — that
// is the point of the summary.
func (t *transfer) invalidateField(s *state, targets RefSet, f fieldID) {
	targets.ForEach(func(r RefID) {
		if s.nl.Has(r) {
			return // lookups on escaped references are already ⊤
		}
		t.weakStore(s, r, f, RefValue(SingletonRef(GlobalRefID)), false)
		if f == elemsFieldID {
			s.delNR(r)
		}
	})
}

// pushCallResult models the call's return value. A reference return
// whose callee summary proves ReturnsFresh is modeled like an allocation
// site: the call-site A name is renamed into its B summary, reset to
// thread-local with null reference fields, and pushed — except its
// integer fields are tainted, since the callee may have initialized
// them. Anything else returns the unknown {GlobalRef} / ⊤.
func (t *transfer) pushCallResult(s *state, pc int, callee *bytecode.Method, sum *MethodSummary, j *judgment) {
	if callee.Return == bytecode.Void {
		return
	}
	if !callee.Return.IsRef() {
		s.push(TopInt())
		return
	}
	if sum != nil && sum.ReturnsFresh {
		if ra, rb := t.refs.site(pc); ra != GlobalRefID {
			if j != nil {
				j.freshReturns++
			}
			// All reference fields are null per the freshness proof, which
			// is exactly the reallocated name's σ default.
			t.reallocate(s, ra, rb)
			s.intTainted = s.intTainted.With(ra)
			s.push(RefValue(SingletonRef(ra)))
			return
		}
	}
	s.push(RefValue(SingletonRef(GlobalRefID)))
}

// reallocate hands a site's A name to the object being created: the
// previous holder is demoted into the B summary and — unless the ablation
// merged the two names, which leaves weak semantics — A restarts from the
// allocation defaults: no σ entries (the allocator zeroed the fields),
// thread-local, no array facts. It reports whether A is such a fresh name.
func (t *transfer) reallocate(s *state, ra, rb RefID) bool {
	s.renameAlloc(ra, rb)
	if t.opts.SingleRefPerSite {
		return false
	}
	s.clearSigmaRef(ra)
	s.nl = s.nl.Without(ra)
	s.delLength(ra)
	s.delNR(ra)
	return true
}

// readField is the value a getfield/aaload of field f yields over every
// possible target: the join of the targets' lookups, or the field's zero
// when the reference is definitely null (unreachable past the NPE).
func (t *transfer) readField(s *state, targets RefSet, f fieldID, wantInt bool) Value {
	out, first := NullValue(), true
	if wantInt {
		out = TopInt()
	}
	targets.ForEach(func(r RefID) {
		v := t.fieldValue(s, r, f, wantInt)
		if first {
			out, first = v, false
		} else {
			out = weakMergeValue(out, v)
		}
	})
	return out
}

// fieldAnn is the annotation of the value readField yields: a thread-local
// single target's σ entry keeps the annotation it was stored with, which is
// none unless a strong update stored an annotated value.
func fieldAnn(s *state, targets RefSet, f fieldID) annot {
	if s.ann == nil {
		return annot{}
	}
	r, one := targets.Single()
	if !one || s.nl.Has(r) {
		return annot{}
	}
	if i := s.tab.find(r, f); i >= 0 {
		return s.ann.sigma.at(i)
	}
	return annot{}
}

// siteLen returns the stable length symbol for a newarray site.
func (t *transfer) siteLen(pc int) intval.ConstU {
	if t.siteLenConst == nil {
		t.siteLenConst = make([]intval.ConstU, len(t.m.Code))
	}
	if t.siteLenConst[pc] == 0 {
		t.siteLenConst[pc] = t.namer.FreshConst() + 1
	}
	return t.siteLenConst[pc] - 1
}

// isNonLocal consults NL, or everNL under the flow-insensitive ablation.
func (t *transfer) isNonLocal(s *state, r RefID) bool {
	if t.opts.FlowInsensitiveEscape {
		return t.everNL.Has(r)
	}
	return s.nl.Has(r)
}

// trackArrays reports whether Len/NR bookkeeping is active.
func (t *transfer) trackArrays() bool { return t.opts.Mode == ModeFieldArray }

// simulate interprets one block from the given state. j, when non-nil,
// receives the verdict of each barrier site traversed.
// It transforms s into the block's out state in place and returns the
// successor block ids (valid until the next call).
func (t *transfer) simulate(s *state, b *bytecode.Block, j *judgment) []int {
	t.targets = t.targets[:0]
	for pc := b.Start; pc < b.End; pc++ {
		in := &t.m.Code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst, bytecode.OpConstBool:
			s.push(IntValue(intval.Const(in.A)))
		case bytecode.OpConstNull:
			s.push(NullValue())
		case bytecode.OpLoad:
			v := s.locals[in.A]
			if v.IsBottom() {
				// Read of a never-written slot (possible only in
				// unverified code): conservative default by slot type.
				if t.m.SlotTypes[in.A].IsRef() {
					v = RefValue(SingletonRef(GlobalRefID))
				} else {
					v = TopInt()
				}
			}
			if t.rt == nil {
				s.push(v)
				break
			}
			a := s.ann.locals.at(int(in.A))
			if v.kind == vInt && v.iv.IsTop() {
				// Freshen the unknown local to a stable per-slot
				// symbol so index expressions stay comparable.
				v, a = IntValue(t.rt.loadSlotInt(int(in.A), &t.namer)), annot{}
			} else if v.kind == vRefs {
				a.vn = t.rt.loadSlotRef(int(in.A))
			}
			s.pushAnn(v, a)
		case bytecode.OpStore:
			v, a := s.popAnn()
			s.locals[in.A] = v
			if t.rt != nil {
				s.ann.locals.set(int(in.A), a)
				t.rt.killSlot(int(in.A))
			}
		case bytecode.OpDup:
			s.dup()
		case bytecode.OpPop:
			s.pop()
		case bytecode.OpAdd:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Add(y.Int())))
		case bytecode.OpSub:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Sub(y.Int())))
		case bytecode.OpMul:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Mul(y.Int())))
		case bytecode.OpNeg:
			s.push(IntValue(s.pop().Int().Neg()))
		case bytecode.OpDiv, bytecode.OpRem:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpAnd, bytecode.OpOr,
			bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
			bytecode.OpCmpGT, bytecode.OpCmpGE, bytecode.OpRefEQ, bytecode.OpRefNE:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpNot:
			s.pop()
			s.push(TopInt())

		case bytecode.OpGoto:
			t.targets = append(t.targets, t.Graph.BlockOf(int(in.A)))
			return t.targets
		case bytecode.OpIfTrue, bytecode.OpIfFalse, bytecode.OpIfNull, bytecode.OpIfNonNull:
			s.pop()
			t.targets = append(t.targets, t.Graph.BlockOf(int(in.A)))

		case bytecode.OpGetStatic:
			if t.syms.Fields[t.FieldAt[pc]].IsRef {
				var a annot
				if t.rt != nil {
					a.vn = t.rt.loadStaticRef(t.FieldAt[pc])
				}
				s.pushAnn(RefValue(SingletonRef(GlobalRefID)), a)
			} else {
				s.push(TopInt())
			}
		case bytecode.OpPutStatic:
			val := s.pop()
			// Values stored into statics escape (AllNonTL).
			s.escapeValue(val)
			if t.opts.NullOrSame {
				s.dropSrcsForField(t.FieldAt[pc])
			}
			if t.rt != nil {
				t.rt.killStatic(t.FieldAt[pc])
			}

		case bytecode.OpGetField:
			obj := s.pop()
			field := t.FieldAt[pc]
			wantInt := !t.syms.Fields[field].IsRef
			out := t.readField(s, obj.Refs(), field, wantInt)
			// Null-or-same provenance: a value loaded from (r, f) is
			// trivially "null or the current content of (r, f)".
			if t.opts.NullOrSame && !wantInt {
				if r, one := obj.Refs().Single(); one {
					out = out.withSrcs(singletonSrc(srcKey{ref: r, field: field}))
				}
			}
			s.pushAnn(out, fieldAnn(s, obj.Refs(), field))

		case bytecode.OpPutField:
			val, a := s.popAnn()
			obj := s.pop()
			field := t.FieldAt[pc]
			isRef := t.syms.Fields[field].IsRef
			if j != nil && isRef {
				t.judgeFieldStore(s, pc, obj.Refs(), field, val, j)
			}
			if t.rec != nil {
				if isRef {
					t.rec.markDirtyField(obj.Refs(), field)
				} else {
					t.rec.markIntMutated(obj.Refs())
				}
			}
			// Strong update for a singleton unique reference, weak
			// otherwise (§2.4).
			if r, one := obj.Refs().Single(); one && t.refs.unique(r) {
				s.sigmaSetAnn(r, field, val, a)
			} else {
				obj.Refs().ForEach(func(r RefID) {
					t.weakStore(s, r, field, val, !isRef)
				})
			}
			if t.opts.NullOrSame {
				s.dropSrcsForField(field)
			}
			s.escapeCond(obj.Refs(), val)

		case bytecode.OpNewInstance:
			ra, rb := t.refs.site(pc)
			if t.reallocate(s, ra, rb) {
				s.intTainted = s.intTainted.Without(ra)
			}
			s.push(RefValue(SingletonRef(ra)))

		case bytecode.OpNewArray:
			n := s.pop().Int()
			ra, rb := t.refs.site(pc)
			fresh := t.reallocate(s, ra, rb)
			// The summary B inherits no length/range facts: its members'
			// lengths differ across the site's executions.
			s.delLength(rb)
			s.delNR(rb)
			if fresh {
				s.intTainted = s.intTainted.Without(ra)
				if t.trackArrays() {
					if n.IsTop() {
						// Unknown allocation length: name it with the
						// site's length symbol. Within one window (until
						// the next allocation here renames R_A) the most
						// recent array's length is a fixed value, which
						// is all the in-window judgments rely on.
						n = intval.OfConstU(t.siteLen(pc))
					}
					s.setLength(ra, n)
					if t.m.Operand(pc).Type.IsRef() {
						// NR(R_A) = [0 .. n-1] (§3.3).
						s.setNR(ra, intval.Full(intval.Const(0), n.Sub(intval.Const(1))))
					}
				}
			}
			s.push(RefValue(SingletonRef(ra)))

		case bytecode.OpArrayLength:
			arr := s.pop()
			out := intval.Top
			first := true
			arr.Refs().ForEach(func(r RefID) {
				l := s.lengthOf(r)
				if first {
					out = l
					first = false
				} else {
					out = intval.Merge(out, l, nil)
				}
			})
			s.push(IntValue(out))

		case bytecode.OpAALoad:
			ind := s.pop().Int()
			arr, arrAnn := s.popAnn()
			out := t.readField(s, arr.Refs(), elemsFieldID, false)
			a := fieldAnn(s, arr.Refs(), elemsFieldID)
			if t.rt != nil {
				a.eprov = &elemProv{arrVN: arrAnn.vn, arr: arr.Refs(), idx: ind, seq: t.rt.tick()}
			}
			s.pushAnn(out, a)

		case bytecode.OpAAStore:
			val, valAnn := s.popAnn()
			ind := s.pop().Int()
			arr, arrAnn := s.popAnn()
			if j != nil {
				t.judgeArrayStore(s, pc, arr.Refs(), ind, j)
			}
			if t.rt != nil {
				t.rt.recordStore(pc, arrAnn.vn, arr.Refs(), ind, valAnn.eprov)
			}
			if t.rec != nil {
				t.rec.markDirtyField(arr.Refs(), elemsFieldID)
			}
			arr.Refs().ForEach(func(r RefID) {
				t.weakStore(s, r, elemsFieldID, val, false)
				if t.trackArrays() {
					if rng := s.nrOf(r); !rng.IsEmpty() {
						s.setNR(r, rng.Contract(ind))
					}
				}
			})
			s.escapeCond(arr.Refs(), val)

		case bytecode.OpIALoad:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpIAStore:
			s.pop()
			s.pop()
			arr := s.pop()
			if t.rec != nil {
				t.rec.markIntMutated(arr.Refs())
			}

		case bytecode.OpInvoke:
			callee := t.syms.Methods[t.CalleeAt[pc]]
			n := len(s.stack) - callee.NumArgs()
			t.args = append(t.args[:0], s.stack[n:]...)
			s.truncate(n)
			args := t.args
			// Passed references escape: nAllNonTL (§2.4) — unless an
			// interprocedural summary proves the callee neither
			// publishes nor mutates the argument.
			sum := t.summaries.of(int(t.CalleeAt[pc]))
			if j != nil && sum != nil {
				j.summaryCalls++
			}
			for i, v := range args {
				if sum != nil && i < len(sum.ArgCompromised) && !sum.ArgCompromised[i] {
					if v.IsRefs() {
						// The argument stays thread-local; if the callee
						// may write its scalar fields, the caller forgets
						// its integer facts about it, and the caller's σ
						// facts die for exactly the reference fields the
						// callee may write (the non-pre-null ones, visited
						// in ascending order). Summary mode propagates both
						// mutation effects transitively.
						if sum.ArgIntMutated[i] {
							s.intTainted = s.intTainted.Union(v.Refs())
							if t.rec != nil {
								t.rec.markIntMutated(v.Refs())
							}
						}
						for _, f := range t.syms.RefFieldsOf(callee.ArgType(i)) {
							if sum.preNull(i, f) {
								continue
							}
							t.invalidateField(s, v.Refs(), f)
							if t.rec != nil {
								t.rec.markDirtyField(v.Refs(), f)
							}
						}
					}
					continue
				}
				s.escapeValue(v)
			}
			if t.opts.NullOrSame {
				// The callee may write any field of any escaped object.
				s.dropAllSrcs()
			}
			if t.rt != nil {
				t.rt.clobber()
			}
			t.pushCallResult(s, pc, callee, sum, j)

		case bytecode.OpSpawn:
			recv := s.pop()
			s.escapeValue(recv)
			if t.opts.NullOrSame {
				s.dropAllSrcs()
			}
			if t.rt != nil {
				t.rt.clobber()
			}

		case bytecode.OpPrint:
			s.pop()

		case bytecode.OpReturn, bytecode.OpReturnValue, bytecode.OpTrap:
			if t.rec != nil && in.Op != bytecode.OpTrap {
				t.rec.recordReturn(s, in.Op == bytecode.OpReturnValue)
			}
			return t.targets
		}
	}
	t.targets = append(t.targets, t.Graph.BlockOf(b.End))
	return t.targets
}

// judgeFieldStore evaluates the putfield judgments in the pre-instruction
// state: pre-null (§2.4) when every possible target is thread-local with
// the field still null, null-or-same (§4.3) when each thread-local target's
// field is null or already holds the stored value. A guarantee keyed by a
// summary reference R_B is about one of the site's older objects, not
// necessarily the one stored into, so null-or-same needs a unique target.
func (t *transfer) judgeFieldStore(s *state, pc int, obj RefSet, field fieldID, val Value, j *judgment) {
	earned := bytecode.VerdictPreNull
	obj.ForEach(func(r RefID) {
		switch {
		case t.isNonLocal(s, r):
			earned = bytecode.VerdictNone
		case s.fieldIsNull(r, field):
		case t.opts.NullOrSame && t.refs.unique(r) && val.srcs.has(srcKey{ref: r, field: field}):
			earned = min(earned, bytecode.VerdictNullOrSame)
		default:
			earned = bytecode.VerdictNone
		}
	})
	j.earn(pc, earned)
}

// judgeArrayStore evaluates the aastore elision judgment: every possible
// array is thread-local and the index lies in its known-null range.
func (t *transfer) judgeArrayStore(s *state, pc int, arr RefSet, ind intval.IntVal, j *judgment) {
	if !t.trackArrays() {
		return
	}
	earned := bytecode.VerdictPreNull
	arr.ForEach(func(r RefID) {
		if t.isNonLocal(s, r) || !s.nrOf(r).Covers(ind) {
			earned = bytecode.VerdictNone
		}
	})
	j.earn(pc, earned)
}
