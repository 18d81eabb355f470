package domain

import (
	"fmt"
	"slices"
	"strings"

	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
)

// slotKey is one (reference, field) pair of the abstract store σ.
type slotKey struct {
	ref   RefID
	field fieldID
}

// slotTable is the index space of one method analysis's abstract states:
// it numbers the (reference, field) pairs σ comes to hold, in the order the
// (deterministic) fixed point first writes them. States store σ as a flat
// slice indexed by slot, so slot order is the one iteration order of every
// copy, comparison and merge. The table only grows; a state's σ may be
// shorter than the table, the missing tail being absent entries.
type slotTable struct {
	// syms names the slots' fields in String; refs is the method's reference
	// table, which places each array's Len and NR entries.
	syms *bytecode.Symbols
	refs *RefTable

	keys []slotKey
	// refSlots lists each reference's slots, so per-reference operations
	// (clearing, renaming, reachability) never scan the whole store.
	refSlots [][]int32

	// work is reachFrom's worklist buffer and merge mergeStates's stride
	// context, reset for every join.
	work  []RefID
	merge intval.MergeCtx
}

// reset empties the table for a method with reference table refs, keeping
// its buffers — the per-reference slot lists included — for the worker's
// next method.
func (t *slotTable) reset(syms *bytecode.Symbols, refs *RefTable) {
	t.syms, t.refs = syms, refs
	t.keys = t.keys[:0]
	rs := t.refSlots[:cap(t.refSlots)]
	for i := range rs {
		rs[i] = rs[i][:0]
	}
	if n := len(refs.infos); n > len(rs) {
		rs = append(rs, make([][]int32, n-len(rs))...)
	}
	t.refSlots = rs[:len(refs.infos)]
}

// find returns the slot of (r, f), or -1 when σ never held the pair.
func (t *slotTable) find(r RefID, f fieldID) int {
	for _, i := range t.refSlots[r] {
		if t.keys[i].field == f {
			return int(i)
		}
	}
	return -1
}

// slot returns the slot of (r, f), numbering the pair on first use.
func (t *slotTable) slot(r RefID, f fieldID) int {
	if i := t.find(r, f); i >= 0 {
		return i
	}
	i := len(t.keys)
	t.keys = append(t.keys, slotKey{ref: r, field: f})
	t.refSlots[r] = append(t.refSlots[r], int32(i))
	return i
}

// State is the paper's program state tuple extended for arrays:
// ⟨ρ, σ, NL, stk, Len, NR⟩. Its representation is this package's alone:
// the engine copies and sizes states with CopyFrom and Footprint, and joins
// and simulates them through Transfer; the zero State is an empty buffer
// for CopyFrom or a join to fill.
//
// Every container is a flat slice owned by exactly one state: σ is indexed
// by slotTable slot, Len and NR by refInfo.arr. An entry carries its
// own "absent" marker — ⊥ in σ (the field still holds its allocation
// default), ⊤ in Len and the empty range in NR (no information) — so
// copying is a memmove and comparison and merge are linear loops in index
// order. The Values, RefSets, IntVals and srcSets stored inside are
// immutable and may be shared between states.
type State struct {
	tab    *slotTable
	locals []Value
	stack  []Value
	nl     RefSet
	sigma  []Value
	length []intval.IntVal
	nr     []intval.Range
	// intTainted marks references whose integer fields a summarized
	// callee may have rewritten: integer lookups on them answer ⊤.
	intTainted RefSet
	// ann, set only while the judge pass simulates a block with
	// Config.Rearrange, annotates the state's values for the swap
	// detector.
	ann *annotations
}

func newState(tab *slotTable, numLocals int) *State {
	s := &State{
		tab:    tab,
		locals: make([]Value, numLocals),
		length: make([]intval.IntVal, tab.refs.numArrays),
		nr:     make([]intval.Range, tab.refs.numArrays),
	}
	for i := range s.length {
		s.length[i] = intval.Top
	}
	return s
}

// CopyFrom makes s a copy of src, over src's slot table, reusing s's
// buffers where they are large enough. The two states share no mutable
// memory afterwards.
func (s *State) CopyFrom(src *State) {
	s.tab = src.tab
	s.locals = append(s.locals[:0], src.locals...)
	s.stack = append(s.stack[:0], src.stack...)
	s.sigma = append(s.sigma[:0], src.sigma...)
	s.length = append(s.length[:0], src.length...)
	s.nr = append(s.nr[:0], src.nr...)
	s.nl, s.intTainted = src.nl, src.intTainted
}

// EntrySlab hands a fixed point's first-reached joins their entry states:
// the states and their Len and NR rows come from slabs made on first use,
// ρ, stk and σ share one exactly-sized allocation. Every buffer is cut with
// no capacity to spare, so a state that outgrows one moves to a buffer of
// its own on the next append and never into its neighbour's.
type EntrySlab struct {
	states  []State
	lengths []intval.IntVal
	ranges  []intval.Range
}

// carve cuts the first n elements off *slab.
func carve[T any](slab *[]T, n int) []T {
	vs := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return vs
}

// NewEntry returns a copy of src in buffers of its own. entries bounds how
// many the fixed point can ask for.
func (sl *EntrySlab) NewEntry(src *State, entries int) *State {
	tab := src.tab
	if sl.states == nil {
		sl.states = make([]State, entries)
		sl.lengths = make([]intval.IntVal, entries*tab.refs.numArrays)
		sl.ranges = make([]intval.Range, entries*tab.refs.numArrays)
	}
	c := &carve(&sl.states, 1)[0]
	c.length = carve(&sl.lengths, tab.refs.numArrays)
	c.nr = carve(&sl.ranges, tab.refs.numArrays)
	c.sigma = make([]Value, len(src.locals)+len(src.stack)+len(src.sigma))
	c.locals = carve(&c.sigma, len(src.locals))
	c.stack = carve(&c.sigma, len(src.stack))
	c.CopyFrom(src)
	return c
}

// sigmaAt returns σ's entry in slot i (⊥ when absent).
func (s *State) sigmaAt(i int) Value {
	if i < len(s.sigma) {
		return s.sigma[i]
	}
	return Bottom
}

// sigmaGet returns σ(r, f) and whether the entry is present.
func (s *State) sigmaGet(r RefID, f fieldID) (Value, bool) {
	if i := s.tab.find(r, f); i >= 0 {
		v := s.sigmaAt(i)
		return v, v.kind != vBottom
	}
	return Bottom, false
}

// sigmaSet writes σ(r, f) = v.
func (s *State) sigmaSet(r RefID, f fieldID, v Value) { s.sigmaSetAnn(r, f, v, annot{}) }

// sigmaSetAnn writes σ(r, f) = v, annotated with a.
func (s *State) sigmaSetAnn(r RefID, f fieldID, v Value, a annot) {
	i := s.tab.slot(r, f)
	for len(s.sigma) <= i {
		s.sigma = append(s.sigma, Bottom)
	}
	s.sigma[i] = v
	if s.ann != nil {
		s.ann.sigma.set(i, a)
	}
}

// sigmaClear makes σ's slot i absent.
func (s *State) sigmaClear(i int) {
	s.sigma[i] = Bottom
	if s.ann != nil {
		s.ann.sigma.set(i, annot{})
	}
}

// clearSigmaRef removes every σ entry keyed by r.
func (s *State) clearSigmaRef(r RefID) {
	for _, i := range s.tab.refSlots[r] {
		if int(i) < len(s.sigma) {
			s.sigmaClear(int(i))
		}
	}
}

// lengthOf returns Len(r), ⊤ when unknown.
func (s *State) lengthOf(r RefID) intval.IntVal {
	if i := s.tab.refs.infos[r].arr; i >= 0 {
		return s.length[i]
	}
	return intval.Top
}

// setLength writes Len(r); ⊤ forgets it. Only array references carry a
// length.
func (s *State) setLength(r RefID, l intval.IntVal) { s.length[s.tab.refs.infos[r].arr] = l }

// delLength forgets Len(r).
func (s *State) delLength(r RefID) {
	if i := s.tab.refs.infos[r].arr; i >= 0 {
		s.length[i] = intval.Top
	}
}

// nrOf returns NR(r), the empty range when no index is known null.
func (s *State) nrOf(r RefID) intval.Range {
	if i := s.tab.refs.infos[r].arr; i >= 0 {
		return s.nr[i]
	}
	return intval.Empty()
}

// setNR writes NR(r); the empty range forgets it. Only array references
// carry a null range.
func (s *State) setNR(r RefID, rng intval.Range) { s.nr[s.tab.refs.infos[r].arr] = rng }

// delNR forgets NR(r).
func (s *State) delNR(r RefID) {
	if i := s.tab.refs.infos[r].arr; i >= 0 {
		s.nr[i] = intval.Empty()
	}
}

// Footprint counts the state's present σ, Len and NR entries — the
// quantity a state-size budget bounds.
func (s *State) Footprint() int {
	n := 0
	for i := range s.sigma {
		if s.sigma[i].kind != vBottom {
			n++
		}
	}
	for i := range s.length {
		if !s.length[i].IsTop() {
			n++
		}
	}
	for i := range s.nr {
		if !s.nr[i].IsEmpty() {
			n++
		}
	}
	return n
}

func (s *State) push(v Value) { s.stack = append(s.stack, v) }

func (s *State) pop() Value {
	v := s.stack[len(s.stack)-1]
	s.truncate(len(s.stack) - 1)
	return v
}

// truncate cuts the stack to its first n values.
func (s *State) truncate(n int) {
	s.stack = s.stack[:n]
	if s.ann != nil {
		s.ann.stack.cut(n)
	}
}

// pushAnn pushes v annotated with a.
func (s *State) pushAnn(v Value, a annot) {
	s.push(v)
	if s.ann != nil {
		s.ann.stack.set(len(s.stack)-1, a)
	}
}

// dup pushes a copy of the top value and its annotation.
func (s *State) dup() {
	top := len(s.stack) - 1
	s.push(s.stack[top])
	if s.ann != nil {
		s.ann.stack.set(top+1, s.ann.stack.at(top))
	}
}

// popAnn pops the top value and its annotation.
func (s *State) popAnn() (Value, annot) {
	var a annot
	if s.ann != nil {
		a = s.ann.stack.at(len(s.stack) - 1)
	}
	return s.pop(), a
}

// lookup implements the paper's lookup(σ, r, NL, f): non-thread-local
// references yield {GlobalRef}; otherwise the σ entry, defaulting to null
// for reference fields (the allocator zeroed them) and 0 for integer
// fields. wantInt selects the integer default.
func (s *State) lookup(r RefID, f fieldID, wantInt bool) Value {
	if s.nl.Has(r) {
		if wantInt {
			return TopInt()
		}
		return RefValue(SingletonRef(GlobalRefID))
	}
	if wantInt && s.intTainted.Has(r) {
		return TopInt()
	}
	if v, ok := s.sigmaGet(r, f); ok {
		return v
	}
	if wantInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// fieldIsNull reports whether σ guarantees (r, f) is null: r is
// thread-local and its entry is the empty reference set (or absent, i.e.
// still zeroed).
func (s *State) fieldIsNull(r RefID, f fieldID) bool {
	if s.nl.Has(r) {
		return false
	}
	v, ok := s.sigmaGet(r, f)
	if !ok {
		return true
	}
	return v.kind == vRefs && v.refs.IsEmpty()
}

// reachFrom returns rs plus every reference transitively reachable from rs
// via σ (the closure used by AllNonTL).
func (s *State) reachFrom(rs RefSet) RefSet {
	out := rs
	work := s.tab.work[:0]
	rs.ForEach(func(r RefID) { work = append(work, r) })
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, i := range s.tab.refSlots[r] {
			v := s.sigmaAt(int(i))
			if v.kind != vRefs {
				continue
			}
			v.refs.ForEach(func(t RefID) {
				if !out.Has(t) {
					out = out.With(t)
					work = append(work, t)
				}
			})
		}
	}
	s.tab.work = work
	return out
}

// escape implements AllNonTL: NL is extended with rs and everything
// reachable from it, and null-or-same guarantees about the newly escaped
// references are dropped from every tracked value.
func (s *State) escape(rs RefSet) {
	if rs.IsEmpty() {
		return
	}
	closed := s.reachFrom(rs)
	if s.nl.Contains(closed) {
		return
	}
	s.nl = s.nl.Union(closed)
	s.dropSrcsForEscaped()
}

// escapeValue escapes a Value when it is a reference.
func (s *State) escapeValue(v Value) {
	if v.kind == vRefs {
		s.escape(v.refs)
	}
}

// escapeCond implements AllNonTLCond: when the target set intersects NL,
// the stored value (and its reachable closure) escapes.
func (s *State) escapeCond(targets RefSet, val Value) {
	if targets.Intersects(s.nl) {
		s.escapeValue(val)
	}
}

// mapSrcs rewrites the null-or-same guarantee set of every tracked value
// through f.
func (s *State) mapSrcs(f func(*srcSet) *srcSet) {
	for _, vs := range [][]Value{s.locals, s.stack, s.sigma} {
		for i := range vs {
			if vs[i].srcs != nil {
				vs[i].srcs = f(vs[i].srcs)
			}
		}
	}
}

// dropSrcsForEscaped strips null-or-same guarantees that name escaped
// references, everywhere in the state.
func (s *State) dropSrcsForEscaped() {
	s.mapSrcs(func(set *srcSet) *srcSet { return set.dropRefs(s.nl) })
}

// dropSrcsForField strips null-or-same guarantees naming the given field,
// everywhere (a store to the field may invalidate them).
func (s *State) dropSrcsForField(field fieldID) {
	s.mapSrcs(func(set *srcSet) *srcSet { return set.dropField(field) })
}

// dropAllSrcs strips every null-or-same guarantee (calls may write any
// field of any reachable object).
func (s *State) dropAllSrcs() {
	s.mapSrcs(func(*srcSet) *srcSet { return nil })
}

// substValue renames references in a value (the allocation-site renaming
// rngSubst of §2.4).
func substValue(v Value, from, to RefID) Value {
	if v.kind != vRefs || !v.refs.Has(from) {
		return v
	}
	v.refs = v.refs.Without(from).With(to)
	// srcs keyed by the renamed ref move with it.
	if v.srcs != nil {
		keys := slices.Clone(v.srcs.keys)
		for i := range keys {
			if keys[i].ref == from {
				keys[i].ref = to
			}
		}
		slices.SortFunc(keys, srcKeyCmp)
		v.srcs = &srcSet{keys: keys}
	}
	return v
}

// renameAlloc performs the newinstance/newarray renaming: every occurrence
// of the site's A reference becomes the B reference (rngSubst on ρ and
// stk, replS on NL, transfer on σ, and the corresponding moves in Len and
// NR), freeing the A name for the newly allocated object.
func (s *State) renameAlloc(a, b RefID) {
	if a == b {
		return // single-summary ablation: nothing to rename
	}
	substAll(s.locals, a, b)
	substAll(s.stack, a, b)
	if s.nl.Has(a) {
		s.nl = s.nl.Without(a).With(b)
	}
	if s.intTainted.Has(a) {
		s.intTainted = s.intTainted.Without(a).With(b)
	}
	// transfer(σ, R_A → R_B): entries under A merge weakly into B (B is a
	// summary), and values mentioning A are renamed.
	for _, i := range s.tab.refSlots[a] {
		v := s.sigmaAt(int(i))
		if v.kind == vBottom {
			continue
		}
		s.sigmaClear(int(i))
		f := s.tab.keys[i].field
		v = substValue(v, a, b)
		old, ok := s.sigmaGet(b, f)
		if !ok {
			// B had no entry: its default is null/zero, so the weak merge
			// is with that default.
			old = defaultFor(v)
		}
		s.sigmaSet(b, f, mergeValue(old, v, nil))
	}
	substAll(s.sigma, a, b)
	// Len and NR move to the summary with weak semantics.
	if l := s.lengthOf(a); !l.IsTop() {
		s.delLength(a)
		if lb := s.lengthOf(b); !lb.IsTop() {
			l = intval.Merge(l, lb, nil)
		}
		s.setLength(b, l)
	}
	if r := s.nrOf(a); !r.IsEmpty() {
		s.delNR(a)
		if rb := s.nrOf(b); !rb.IsEmpty() {
			r = intval.MergeRanges(r, rb, nil)
		}
		s.setNR(b, r)
	}
}

// substAll renames from to to in every value of vs that mentions it.
func substAll(vs []Value, from, to RefID) {
	for i := range vs {
		if vs[i].refs.Has(from) {
			vs[i] = substValue(vs[i], from, to)
		}
	}
}

// resized returns vs with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](vs []T, n int) []T { return slices.Grow(vs[:0], n)[:n] }

// mergeStates overwrites out with the merge of incoming into cur, over
// cur's slot table, and reports whether the result differs from cur. out
// must be neither of the inputs. All integer components share one stride context (the essence of
// §3.5), visited in a fixed order — stack, locals, σ by slot, Len, NR — so
// which component first names a stride is a property of the method, not
// of the run. namer supplies fresh variable unknowns; noStride disables
// their invention (ablation). The context is the slot table's, reset here.
func mergeStates(out, cur, incoming *State, namer *intval.Namer, noStride bool) bool {
	out.tab = cur.tab
	ctx := &out.tab.merge
	ctx.Reset(namer, noStride)
	changed := false

	if len(cur.stack) != len(incoming.stack) {
		// Verified bytecode guarantees agreement; degrade to an empty
		// stack (convergent: changed only the first time).
		out.stack = out.stack[:0]
		changed = len(cur.stack) != 0
	} else {
		out.stack = resized(out.stack, len(cur.stack))
		for i := range cur.stack {
			out.stack[i] = mergeValue(cur.stack[i], incoming.stack[i], ctx)
			if !out.stack[i].Equal(cur.stack[i]) {
				changed = true
			}
		}
	}
	out.locals = resized(out.locals, len(cur.locals))
	for i := range cur.locals {
		out.locals[i] = mergeValue(cur.locals[i], incoming.locals[i], ctx)
		if !out.locals[i].Equal(cur.locals[i]) {
			changed = true
		}
	}

	out.nl = cur.nl.Union(incoming.nl)
	if !out.nl.Equal(cur.nl) {
		changed = true
	}
	out.intTainted = cur.intTainted.Union(incoming.intTainted)
	if !out.intTainted.Equal(cur.intTainted) {
		changed = true
	}

	// σ: union of entries; an absent entry denotes the allocation default
	// (null / 0), which is what lookup assumes.
	out.sigma = resized(out.sigma, max(len(cur.sigma), len(incoming.sigma)))
	for i := range out.sigma {
		v, w := cur.sigmaAt(i), incoming.sigmaAt(i)
		switch {
		case v.kind == vBottom && w.kind == vBottom:
			out.sigma[i] = Bottom
			continue
		case w.kind == vBottom:
			w = defaultFor(v)
		case v.kind == vBottom:
			// cur implicitly held the default; the entry changes cur only
			// if the merge differs from that default.
			v = defaultFor(w)
		}
		m := mergeValue(v, w, ctx)
		out.sigma[i] = m
		if !m.Equal(v) {
			changed = true
		}
	}

	// Len and NR: intersection of entries (an absent entry is "no
	// information", which absorbs).
	out.length = resized(out.length, len(cur.length))
	for i, l := range cur.length {
		out.length[i] = intval.Merge(l, incoming.length[i], ctx)
		if !out.length[i].Equal(l) {
			changed = true
		}
	}
	out.nr = resized(out.nr, len(cur.nr))
	for i, rng := range cur.nr {
		out.nr[i] = intval.MergeRanges(rng, incoming.nr[i], ctx)
		if !out.nr[i].Equal(rng) {
			changed = true
		}
	}
	return changed
}

// defaultFor returns the allocation-time default matching a value's kind.
func defaultFor(v Value) Value {
	if v.kind == vInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// String renders the state for debugging.
func (s *State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "locals=%v stack=%v nl=%s\n", s.locals, s.stack, s.nl)
	if !s.intTainted.IsEmpty() {
		fmt.Fprintf(&b, "  intTainted=%s\n", s.intTainted)
	}
	for i, v := range s.sigma {
		if v.kind != vBottom {
			k := s.tab.keys[i]
			fmt.Fprintf(&b, "  σ(r%d,%s)=%v\n", k.ref, s.tab.syms.Fields[k.field].Name, v)
		}
	}
	for r, info := range s.tab.refs.infos {
		i := info.arr
		if i < 0 {
			continue
		}
		if !s.length[i].IsTop() {
			fmt.Fprintf(&b, "  Len(r%d)=%s\n", r, s.length[i])
		}
		if !s.nr[i].IsEmpty() {
			fmt.Fprintf(&b, "  NR(r%d)=%s\n", r, s.nr[i])
		}
	}
	return b.String()
}
