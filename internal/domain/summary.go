package domain

import (
	"slices"

	"satbelim/internal/bytecode"
)

// Interprocedural escape summaries — the future-work direction the paper
// names in §2.4: "this conservative treatment of arguments of non-inlined
// methods (and our current lack of interprocedural techniques) is
// detrimental to the precision of the analysis."
//
// A MethodSummary records what a call can do to the caller's facts:
//
//   - per argument, whether the call may *compromise* it — make it (or
//     anything the caller can reach from it) visible to other threads or
//     callers: stored into a static, an escaped object, another argument,
//     or the return value, or published after being read out of the
//     argument's fields;
//   - per argument, which reference fields the callee provably leaves
//     null (ArgPreNullFields) — writes to the remaining fields survive as
//     a targeted σ invalidation instead of compromising the argument, so
//     constructors stop killing caller facts about their receiver;
//   - per argument, whether integer fields/elements may be written
//     (ArgIntMutated), which taints the caller's integer facts only;
//   - whether the return value is a fresh, never-escaped allocation with
//     all reference fields null (ReturnsFresh), letting the caller treat
//     the call site like an allocation site (an A/B pair with
//     pre-null-eligible stores).
//
// A summary is read off (Transfer.Summary) the same abstract
// interpretation run in a "summary mode" where arguments start thread-local
// and returning a value escapes it; the order in which methods are
// summarized is the engine's. The unknown caller-provided contents of an
// argument's fields are abstracted by a per-argument contents reference
// (refArgContent): reading an untracked argument field yields the contents
// reference, so publishing or mutating anything reached through the
// argument compromises it — without that linkage a callee could publish
// arg.f and the caller would keep elisions on objects it can no longer
// prove thread-local.

// MethodSummary is the interprocedural fact set for one method. All
// fields move monotonically toward the worst case during the fixed
// point: bools in ArgCompromised/ArgIntMutated are only set, ReturnsFresh
// is only cleared, ArgPreNullFields sets only shrink.
type MethodSummary struct {
	// ArgCompromised[i] is false only when the callee provably does not
	// publish argument i (receiver = 0) or anything reachable from it.
	ArgCompromised []bool
	// ArgIntMutated[i] records that the callee may write integer or
	// boolean fields (or int-array elements) of argument i. A caller
	// keeps such an argument thread-local but must forget its integer
	// facts (stale indices could otherwise feed the array analysis).
	ArgIntMutated []bool
	// ArgPreNullFields[i] is the set of reference fields of argument i
	// the callee provably leaves null, as ascending ids of the program's
	// symbol table (elemsFieldID for reference arrays). The caller
	// invalidates its σ facts for the complement — fields the callee may
	// have written — and keeps everything else.
	ArgPreNullFields [][]fieldID
	// ReturnsFresh reports that the returned reference is a fresh
	// allocation of this call: never escaped, not reachable from any
	// argument, every reference field still null. Integer fields may
	// have been initialized, so the caller taints them.
	ReturnsFresh bool
}

// OptimisticSummary is the least element of the summary lattice: nothing
// compromised, every reference field pre-null, the return fresh.
func OptimisticSummary(syms *bytecode.Symbols, m *bytecode.Method) *MethodSummary {
	s := blankSummary(m)
	for i := 0; i < m.NumArgs(); i++ {
		// A copy: worsen filters it in place.
		s.ArgPreNullFields[i] = slices.Clone(syms.RefFieldsOf(m.ArgType(i)))
	}
	return s
}

// blankSummary sizes a summary for m with nothing compromised, no pre-null
// field recorded yet and a reference return presumed fresh.
func blankSummary(m *bytecode.Method) *MethodSummary {
	return &MethodSummary{
		ArgCompromised:   make([]bool, m.NumArgs()),
		ArgIntMutated:    make([]bool, m.NumArgs()),
		ArgPreNullFields: make([][]fieldID, m.NumArgs()),
		ReturnsFresh:     m.Return.IsRef(),
	}
}

// WorstSummary compromises everything.
func WorstSummary(m *bytecode.Method) *MethodSummary {
	s := blankSummary(m)
	s.DegradeToWorst()
	return s
}

// DegradeToWorst moves the summary to the top of the lattice in place.
func (s *MethodSummary) DegradeToWorst() {
	for i := range s.ArgCompromised {
		s.ArgCompromised[i] = true
		s.ArgIntMutated[i] = true
		s.ArgPreNullFields[i] = nil
	}
	s.ReturnsFresh = false
}

// Worsen merges ns into s (monotone join toward the worst case),
// reporting whether s changed — the convergence test of the per-SCC
// fixed point.
func (s *MethodSummary) Worsen(ns *MethodSummary) bool {
	changed := false
	for i := range s.ArgCompromised {
		if ns.ArgCompromised[i] && !s.ArgCompromised[i] {
			s.ArgCompromised[i] = true
			changed = true
		}
		if ns.ArgIntMutated[i] && !s.ArgIntMutated[i] {
			s.ArgIntMutated[i] = true
			changed = true
		}
		cur := s.ArgPreNullFields[i]
		kept := slices.DeleteFunc(cur, func(f fieldID) bool { return !ns.PreNull(i, f) })
		if len(kept) < len(cur) {
			changed = true
			s.ArgPreNullFields[i] = kept
		}
	}
	if s.ReturnsFresh && !ns.ReturnsFresh {
		s.ReturnsFresh = false
		changed = true
	}
	return changed
}

// PreNull reports whether field f of argument i is in the summary's
// pre-null set.
func (s *MethodSummary) PreNull(i int, f fieldID) bool {
	return i < len(s.ArgPreNullFields) && slices.Contains(s.ArgPreNullFields[i], f)
}

// Summaries holds each method's interprocedural facts, indexed by method
// number; nil for a method without a summary.
type Summaries []*MethodSummary

// of returns the summary of method i, or nil: a set shorter than the
// program (the empty one above all) has no entry for the rest.
func (s Summaries) of(i int) *MethodSummary {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// Summary reads the method's summary off a converged summary-mode
// analysis: each argument's fate and the return value's freshness.
func (t *Transfer) Summary() *MethodSummary {
	m := t.m
	rec := t.rec
	out := blankSummary(m)
	out.ReturnsFresh = out.ReturnsFresh && !rec.retNotFresh
	for i, r := range t.refs.argRef {
		if r == 0 {
			continue // non-reference arguments are never compromised
		}
		comp := t.everNL.Has(r) || rec.reach.Has(r) || rec.storedInOtherArg(i, r)
		if cr := t.refs.argContent[i]; cr != 0 {
			// Anything reached through the argument that was published,
			// returned, stored into another argument, or mutated takes
			// the whole argument with it: the caller has no finer name
			// for the affected objects.
			comp = comp || t.everNL.Has(cr) || rec.reach.Has(cr) ||
				rec.storedInOtherArg(i, cr) || rec.contentMutated.Has(cr)
		}
		out.ArgCompromised[i] = comp
		out.ArgIntMutated[i] = rec.intMutatedArgs.Has(r)
		for _, f := range t.syms.RefFieldsOf(m.ArgType(i)) {
			if !slices.Contains(rec.args[i].dirty, f) {
				out.ArgPreNullFields[i] = append(out.ArgPreNullFields[i], f)
			}
		}
	}
	return out
}

// summaryRecorder is what a summary-mode fixed point learns about the
// method beyond its abstract states: the transfer functions report every
// argument mutation and every return point to it, and Summary reads each
// argument's fate off it afterwards. A Transfer has one exactly when
// it runs in summary mode — arguments start thread-local, untracked
// argument fields read as the contents reference — and nil otherwise.
type summaryRecorder struct {
	refs  *RefTable
	slots *slotTable

	// args is what the method does to each argument, by argument index.
	args []argEffects
	// intMutatedArgs collects arguments whose integer fields/elements the
	// method may write.
	intMutatedArgs RefSet
	// contentMutated collects contents references (refArgContent) the
	// method may write through: mutating an object merely reachable from
	// an argument compromises the argument, since the caller has no
	// finer name for the affected object.
	contentMutated RefSet
	// reach collects references reachable from returned values or escaped
	// objects at return points: such arguments are compromised for the
	// caller.
	reach RefSet
	// argRefs is the set of argument and contents references, cached for
	// the per-return freshness check.
	argRefs RefSet
	// retNotFresh records that some return statement's value failed the
	// strict freshness conditions (see checkReturnFresh); it clears the
	// summary's ReturnsFresh claim.
	retNotFresh bool
}

// argEffects is what a summary-mode fixed point learns about one argument.
// dirty collects the reference fields the method may write: the complement
// of the summary's ArgPreNullFields. stored collects everything reachable
// from references the method stored into the argument's fields: an argument
// stored into a DIFFERENT argument's fields is compromised (the caller gains
// an untracked path to it), while stores into an argument's own fields are
// covered by the targeted dirty-field invalidation.
type argEffects struct {
	dirty  []fieldID
	stored RefSet
}

func newSummaryRecorder(refs *RefTable, slots *slotTable) *summaryRecorder {
	rec := &summaryRecorder{refs: refs, slots: slots, args: make([]argEffects, len(refs.argRef))}
	for r, info := range refs.infos {
		if info.kind == refArg || info.kind == refArgContent {
			rec.argRefs = rec.argRefs.With(RefID(r))
		}
	}
	return rec
}

// contentRef resolves the contents reference a summary-mode read of an
// untracked field of r yields: the argument's contents reference for a
// non-unique argument, r itself for contents (deep reads stay contents),
// nothing otherwise. A constructor's unique receiver keeps the plain
// allocation defaults — its fields genuinely start null.
func (rec *summaryRecorder) contentRef(r RefID) (RefID, bool) {
	info := rec.refs.info(r)
	switch info.kind {
	case refArg:
		cr := rec.refs.argContent[info.arg]
		return cr, cr != 0
	case refArgContent:
		return r, true
	}
	return 0, false
}

// markDirtyField records, in summary mode, a reference-field write
// against its targets: a direct write to an argument dirties that field
// of the argument (the caller invalidates just that σ fact), while a
// write through the argument's contents compromises the whole argument —
// the caller has no finer name for the written object.
func (rec *summaryRecorder) markDirtyField(targets RefSet, field fieldID) {
	targets.ForEach(func(r RefID) {
		switch info := rec.refs.info(r); info.kind {
		case refArg:
			if arg := &rec.args[info.arg]; !slices.Contains(arg.dirty, field) {
				arg.dirty = append(arg.dirty, field)
			}
		case refArgContent:
			rec.contentMutated = rec.contentMutated.With(r)
		}
	})
}

// markIntMutated records integer-field/element writes: against an
// argument it taints only the caller's integer facts, but a write
// through contents compromises the argument (the caller's integer facts
// about reachable objects have no per-object taint channel).
func (rec *summaryRecorder) markIntMutated(targets RefSet) {
	targets.ForEach(func(r RefID) {
		switch rec.refs.info(r).kind {
		case refArg:
			rec.intMutatedArgs = rec.intMutatedArgs.With(r)
		case refArgContent:
			rec.contentMutated = rec.contentMutated.With(r)
		}
	})
}

// recordReturn accumulates, at a return point, every reference a
// caller (or another thread) could reach afterwards: escaped references
// and the returned value feed reach (compromising), while
// references stored into an argument's fields feed that argument's stored
// set — they compromise only the OTHER arguments found there.
// It also applies the strict freshness test to the returned value.
func (rec *summaryRecorder) recordReturn(s *State, hasValue bool) {
	set := s.nl
	if hasValue {
		top := s.stack[len(s.stack)-1]
		if top.IsRefs() {
			set = set.Union(top.Refs())
			rec.checkReturnFresh(s, top.Refs())
		}
	}
	rec.reach = rec.reach.Union(s.reachFrom(set))
	for arg, r := range rec.refs.argRef {
		if r == 0 {
			continue
		}
		for _, i := range rec.slots.refSlots[r] {
			if v := s.sigmaAt(int(i)); v.IsRefs() {
				rec.args[arg].stored = rec.args[arg].stored.Union(s.reachFrom(v.Refs()))
			}
		}
	}
}

// storedInOtherArg reports whether reference r (an argument or its
// contents, belonging to argument i) was stored into some other
// argument's fields — an untracked caller-visible alias.
func (rec *summaryRecorder) storedInOtherArg(i int, r RefID) bool {
	for j := range rec.args {
		if j != i && rec.args[j].stored.Has(r) {
			return true
		}
	}
	return false
}

// checkReturnFresh tests the strict ReturnsFresh conditions on one
// return statement's value, clearing the claim when any fails: every
// possible returned object must be an allocation of this method (or a
// callee's fresh return), never escaped, unreachable from any argument
// or its contents, and have every reference field still null — the
// caller will model the call site exactly like an allocation site, so
// any non-null field or caller-visible alias would mint unsound pre-null
// facts. Returning a definite null is trivially fresh.
func (rec *summaryRecorder) checkReturnFresh(s *State, refs RefSet) {
	if rec.retNotFresh || refs.IsEmpty() {
		return
	}
	argReach := s.reachFrom(rec.argRefs)
	ok := true
	refs.ForEach(func(r RefID) {
		switch rec.refs.info(r).kind {
		case refAllocA, refAllocB, refCallA, refCallB:
		default:
			ok = false
			return
		}
		if s.nl.Has(r) || argReach.Has(r) {
			ok = false
		}
	})
	if ok {
		refs.ForEach(func(r RefID) {
			for _, i := range rec.slots.refSlots[r] {
				if v := s.sigmaAt(int(i)); v.kind == vRefs && !v.refs.IsEmpty() {
					ok = false
				}
			}
		})
	}
	if !ok {
		rec.retNotFresh = true
	}
}
