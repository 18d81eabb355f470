package domain

import (
	"slices"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
)

func TestValueMergeBasics(t *testing.T) {
	var n intval.Namer
	ctx := intval.NewMergeCtx(&n)

	// Bottom is the merge identity.
	v := RefValue(SingletonRef(3))
	if got := mergeValue(Bottom, v, ctx); !got.Equal(v) {
		t.Error("⊥ ⊔ v = v")
	}
	if got := mergeValue(v, Bottom, ctx); !got.Equal(v) {
		t.Error("v ⊔ ⊥ = v")
	}
	// Ref sets union.
	w := RefValue(SingletonRef(5))
	m := mergeValue(v, w, ctx)
	if !m.Refs().Has(3) || !m.Refs().Has(5) {
		t.Error("ref merge should union")
	}
	// Null (empty set) is a normal refs value.
	m2 := mergeValue(NullValue(), v, ctx)
	if !m2.Refs().Equal(SingletonRef(3)) {
		t.Error("null ⊔ {r} = {r}")
	}
	// Kind mismatch degrades to top int (cannot occur in verified code).
	m3 := mergeValue(v, IntValue(intval.Const(1)), ctx)
	if !m3.Int().IsTop() {
		t.Error("kind mismatch should degrade to ⊤ int")
	}
	// Ints go through the shared stride machinery.
	m4 := mergeValue(IntValue(intval.Const(0)), IntValue(intval.Const(1)), ctx)
	if !m4.Int().HasVar() {
		t.Errorf("0 ⊔ 1 should invent a stride variable, got %v", m4)
	}
}

// Fields of the test slot table (see testTable), numbered as every field
// table numbers them: by qualified name.
const (
	fA fieldID = iota + 1 // T.a
	fF                    // T.f
	fG                    // T.g
	fK                    // T.k
)

// testTable returns a slot table over ten references, every one an array
// so that Len and NR are addressable, and the fields of a one-class
// program.
func testTable() *slotTable {
	refs := &RefTable{infos: make([]refInfo, 10), numArrays: 10}
	for i := range refs.infos {
		refs.infos[i].arr = int32(i)
	}
	p := bytecode.NewProgram()
	tt := bytecode.ClassType("T")
	p.AddClass(&bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "f", Type: tt}, {Name: "g", Type: tt}, {Name: "k", Type: bytecode.Int}, {Name: "a", Type: tt},
	}})
	tab := &slotTable{}
	tab.reset(p.Symbols(), refs)
	return tab
}

// present reports whether σ holds an entry — even an explicit default —
// for (r, f).
func present(s *State, r RefID, f fieldID) bool {
	_, ok := s.sigmaGet(r, f)
	return ok
}

func TestStateLookupDefaults(t *testing.T) {
	s := newState(testTable(), 0)
	s.nl = SingletonRef(GlobalRefID)

	// Unknown field of a thread-local ref defaults to null / zero.
	if v := s.lookup(5, fF, false); !v.Refs().IsEmpty() {
		t.Errorf("ref default should be null, got %v", v)
	}
	if v := s.lookup(5, fK, true); !v.Int().Equal(intval.Const(0)) {
		t.Errorf("int default should be 0, got %v", v)
	}
	// NL refs answer GlobalRef / ⊤.
	if v := s.lookup(GlobalRefID, fF, false); !v.Refs().Equal(SingletonRef(GlobalRefID)) {
		t.Errorf("NL lookup = %v", v)
	}
	if v := s.lookup(GlobalRefID, fK, true); !v.Int().IsTop() {
		t.Errorf("NL int lookup = %v", v)
	}
	// fieldIsNull mirrors those rules.
	if !s.fieldIsNull(5, fF) {
		t.Error("unwritten field of local ref is null")
	}
	if s.fieldIsNull(GlobalRefID, fF) {
		t.Error("NL fields are never known null")
	}
	s.sigmaSet(5, fF, RefValue(SingletonRef(7)))
	if s.fieldIsNull(5, fF) {
		t.Error("written field is not null")
	}
	// Reads never number a slot: only the one written pair exists, and
	// absent entries — read or not — are not part of the footprint.
	if len(s.tab.keys) != 1 || s.Footprint() != 1 {
		t.Errorf("slots = %d, footprint = %d, want 1 and 1", len(s.tab.keys), s.Footprint())
	}
}

func TestEscapeTransitiveClosure(t *testing.T) {
	s := newState(testTable(), 0)
	s.nl = SingletonRef(GlobalRefID)
	// 1 -> 2 -> 3 via σ; 4 unrelated.
	s.sigmaSet(1, fA, RefValue(SingletonRef(2)))
	s.sigmaSet(2, elemsFieldID, RefValue(SingletonRef(3)))
	s.sigmaSet(4, fA, RefValue(SingletonRef(4)))

	s.escape(SingletonRef(1))
	for _, r := range []RefID{1, 2, 3} {
		if !s.nl.Has(r) {
			t.Errorf("ref %d should have escaped", r)
		}
	}
	if s.nl.Has(4) {
		t.Error("unreachable ref must not escape")
	}
}

func TestEscapeCond(t *testing.T) {
	s := newState(testTable(), 0)
	s.nl = SingletonRef(GlobalRefID)
	val := RefValue(SingletonRef(9))
	// Store into a thread-local target: no escape.
	s.escapeCond(SingletonRef(5), val)
	if s.nl.Has(9) {
		t.Error("store into local target must not escape the value")
	}
	// Store into a (possibly) NL target: value escapes.
	s.escapeCond(SingletonRef(GlobalRefID), val)
	if !s.nl.Has(9) {
		t.Error("store into NL target must escape the value")
	}
}

func TestRenameAllocMovesEverything(t *testing.T) {
	s := newState(testTable(), 2)
	s.nl = SingletonRef(GlobalRefID).With(2) // A-ref 2 escaped
	s.locals[0] = RefValue(SingletonRef(2))
	s.stack = append(s.stack, RefValue(SingletonRef(2).With(7)))
	s.sigmaSet(2, fF, RefValue(SingletonRef(2)))
	s.sigmaSet(7, fG, RefValue(SingletonRef(2)))
	s.setLength(2, intval.Const(4))
	s.setNR(2, intval.Low(intval.Const(1)))

	s.renameAlloc(2, 3) // A=2 -> B=3

	if s.locals[0].Refs().Has(2) || !s.locals[0].Refs().Has(3) {
		t.Error("locals not renamed")
	}
	if s.stack[0].Refs().Has(2) || !s.stack[0].Refs().Has(3) || !s.stack[0].Refs().Has(7) {
		t.Error("stack not renamed")
	}
	if s.nl.Has(2) || !s.nl.Has(3) {
		t.Error("NL not renamed")
	}
	if present(s, 2, fF) {
		t.Error("σ key not transferred")
	}
	if v, _ := s.sigmaGet(3, fF); !v.Refs().Has(3) {
		t.Errorf("σ transfer should rename values too, got %v", v)
	}
	if v, _ := s.sigmaGet(7, fG); v.Refs().Has(2) || !v.Refs().Has(3) {
		t.Error("other entries' values not renamed")
	}
	if !s.lengthOf(2).IsTop() {
		t.Error("Len not moved")
	}
	if l := s.lengthOf(3); !l.Equal(intval.Const(4)) {
		t.Errorf("Len(B) = %v", l)
	}
	if !s.nrOf(2).IsEmpty() {
		t.Error("NR not moved")
	}
	if r := s.nrOf(3); !r.Equal(intval.Low(intval.Const(1))) {
		t.Errorf("NR(B) = %v", r)
	}
}

func TestRenameAllocWeakMergeIntoSummary(t *testing.T) {
	s := newState(testTable(), 0)
	s.sigmaSet(2, fF, RefValue(SingletonRef(9)))
	s.sigmaSet(3, fF, RefValue(SingletonRef(8)))
	s.setLength(2, intval.Const(4))
	s.setLength(3, intval.Const(5))
	s.renameAlloc(2, 3)
	got, _ := s.sigmaGet(3, fF)
	if !got.Refs().Has(8) || !got.Refs().Has(9) {
		t.Errorf("summary merge should union: %v", got)
	}
	// Differing lengths have no common description outside a control-flow
	// merge: the summary forgets its length.
	if l := s.lengthOf(3); !l.IsTop() {
		t.Errorf("Len(B) = %v, want forgotten", l)
	}
	// Transferring into an absent summary entry must merge with the
	// allocation default (null), not overwrite it away: the resulting
	// entry keeps the A value.
	s2 := newState(testTable(), 0)
	s2.sigmaSet(2, fF, RefValue(SingletonRef(9)))
	s2.renameAlloc(2, 3)
	if got, _ := s2.sigmaGet(3, fF); !got.Refs().Has(9) {
		t.Errorf("transfer into empty summary: %v", got)
	}
	if present(s2, 2, fF) || s2.Footprint() != 1 {
		t.Errorf("the A entry should have moved, footprint = %d", s2.Footprint())
	}
}

func TestMergeStatesSigmaDefaults(t *testing.T) {
	var n intval.Namer
	tab := testTable()
	a := newState(tab, 1)
	b := newState(tab, 1)
	a.locals[0] = NullValue()
	b.locals[0] = NullValue()
	// a has a non-null entry; b implicitly holds the null default.
	a.sigmaSet(2, fF, RefValue(SingletonRef(5)))
	merged := &State{tab: tab}
	// b's implicit default is null; union with {5} leaves a unchanged.
	if mergeStates(merged, a, b, &n, false) {
		t.Error("union with the implicit null default should not report change")
	}
	if got, _ := merged.sigmaGet(2, fF); !got.Refs().Has(5) {
		t.Errorf("merged σ = %v", got)
	}

	// The reverse direction: a lacks the entry, b carries a non-default
	// value — the merge must report a change.
	c := newState(tab, 1)
	c.locals[0] = NullValue()
	d := newState(tab, 1)
	d.locals[0] = NullValue()
	d.sigmaSet(2, fF, RefValue(SingletonRef(5)))
	if !mergeStates(merged, c, d, &n, false) {
		t.Error("a new non-default entry must report change")
	}
	if got, _ := merged.sigmaGet(2, fF); !got.Refs().Has(5) {
		t.Errorf("merged σ = %v", got)
	}

	// An explicit default on one side stays an entry of the merge (it
	// counts toward MaxStateSize) without reporting a change.
	d.sigmaSet(2, fF, NullValue())
	if mergeStates(merged, c, d, &n, false) {
		t.Error("an explicit default is no change against the implicit one")
	}
	if !present(merged, 2, fF) || merged.Footprint() != 1 {
		t.Errorf("explicit default dropped from the merge, footprint = %d", merged.Footprint())
	}
}

func TestMergeStatesLenNRIntersection(t *testing.T) {
	var n intval.Namer
	tab := testTable()
	a := newState(tab, 0)
	b := newState(tab, 0)
	a.setLength(2, intval.Const(4))
	a.setNR(2, intval.Low(intval.Const(0)))
	// b lacks both: merged must drop them (no information on one path).
	merged := &State{tab: tab}
	if !mergeStates(merged, a, b, &n, false) {
		t.Error("losing Len/NR facts is a change")
	}
	if !merged.lengthOf(2).IsTop() {
		t.Error("Len should intersect keys")
	}
	if !merged.nrOf(2).IsEmpty() {
		t.Error("NR should intersect keys")
	}
	// Facts only the incoming side has never arrive, and are no change.
	if mergeStates(merged, b, a, &n, false) || merged.Footprint() != 0 {
		t.Error("incoming-only Len/NR facts must be ignored")
	}
}

// TestStateCopiesShareNoBuffers is the bug class the copy-on-write flags
// used to guard: after CopyFrom and NewEntry, writes to either state — also
// ones that reuse spare capacity or number new slots — never show in the
// other. The reference state want is built by the same literal steps as
// the states under test, not copied from one: a copy that shares a buffer
// would change along with its source and hide the sharing.
func TestStateCopiesShareNoBuffers(t *testing.T) {
	tab := testTable()
	build := func() *State {
		s := newState(tab, 2)
		s.locals[0] = RefValue(SingletonRef(1))
		s.stack = append(s.stack, IntValue(intval.Const(7)))
		s.sigmaSet(1, fF, RefValue(SingletonRef(2)))
		s.setLength(1, intval.Const(3))
		s.setNR(1, intval.Low(intval.Const(0)))
		return s
	}
	entry, want := build(), build()

	mutate := func(s *State) {
		s.locals[0] = NullValue()
		s.locals[1] = IntValue(intval.Const(1))
		s.pop()
		s.push(NullValue())
		s.push(NullValue())
		s.sigmaSet(1, fF, RefValue(SingletonRef(9)))
		s.sigmaSet(5, fG, RefValue(SingletonRef(1))) // a slot entry never had
		s.renameAlloc(1, 6)
		s.escape(SingletonRef(6))
		s.delLength(6)
		s.setNR(2, intval.Low(intval.Const(4)))
	}

	scratch := &State{tab: tab}
	scratch.CopyFrom(entry)
	if !sameState(scratch, entry) {
		t.Fatal("CopyFrom is not a copy")
	}
	mutate(scratch)
	if !sameState(entry, want) {
		t.Errorf("mutating the scratch copy changed the stored entry:\n%v", entry)
	}

	// The other direction, through recycled buffers: scratch now has
	// capacity to spare, so CopyFrom reuses its arrays.
	scratch.CopyFrom(entry)
	mutate(entry)
	if !sameState(scratch, want) {
		t.Errorf("mutating the entry changed its scratch copy:\n%v", scratch)
	}

	// A merge result is as private as a copy.
	var n intval.Namer
	merged := &State{tab: tab}
	mergeStates(merged, scratch, want, &n, false)
	mutate(merged)
	if !sameState(scratch, want) {
		t.Error("mutating a merge result changed its input")
	}

	// An entry NewEntry stores shares nothing with its source, either way.
	var slab EntrySlab
	src := build()
	stored := slab.NewEntry(src, 2)
	if !sameState(stored, want) {
		t.Fatal("NewEntry is not a copy")
	}
	mutate(src)
	if !sameState(stored, want) {
		t.Errorf("mutating the source changed the stored entry:\n%v", stored)
	}
	src = build()
	stored = slab.NewEntry(src, 2)
	mutate(stored)
	if !sameState(src, want) {
		t.Errorf("mutating the stored entry changed its source:\n%v", src)
	}
}

// sameState reports whether two states hold the same entries, position by
// position.
func sameState(a, b *State) bool {
	return slices.EqualFunc(a.locals, b.locals, Value.Equal) &&
		slices.EqualFunc(a.stack, b.stack, Value.Equal) &&
		slices.EqualFunc(a.sigma, b.sigma, Value.Equal) &&
		slices.EqualFunc(a.length, b.length, intval.IntVal.Equal) &&
		slices.EqualFunc(a.nr, b.nr, intval.Range.Equal) &&
		a.nl.Equal(b.nl) && a.intTainted.Equal(b.intTainted)
}

func TestSrcSetOperations(t *testing.T) {
	k1 := srcKey{ref: 1, field: fF}
	k2 := srcKey{ref: 2, field: fG}
	s := singletonSrc(k1)
	if !s.has(k1) || s.has(k2) {
		t.Error("membership")
	}
	both := &srcSet{keys: []srcKey{k1, k2}}
	if got := both.intersect(singletonSrc(k1)); !got.has(k1) || got.has(k2) {
		t.Error("intersect")
	}
	if got := both.dropField(fG); got.has(k2) || !got.has(k1) {
		t.Error("dropField")
	}
	if got := both.dropRefs(SingletonRef(1)); got.has(k1) || !got.has(k2) {
		t.Error("dropRefs")
	}
	var nilSet *srcSet
	if nilSet.has(k1) || nilSet.intersect(s) != nil || nilSet.dropField(fK) != nil {
		t.Error("nil set behaviour")
	}
	if !nilSet.equal(nil) || nilSet.equal(s) {
		t.Error("nil equality")
	}
}
