package domain

import (
	"maps"
	"slices"

	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
)

// The §4.3 "array rearrangements" extension. The paper observes that
// loops permuting the elements of an object array (db's sort swaps, jbb's
// move-down deletes) overwrite values that remain stored in the array, so
// instead of logging each pre-value the mutator may run an optimistic
// protocol: check the array's tracing state around the rearrangement and
// put the array on a retrace list when the collector's scan may have
// overlapped it.
//
// This file implements the static half for the *swap idiom* (the paper's
// "we could eliminate both barriers in the swap idiom with this
// approach"): a pair of aastores in one basic block that provably
// exchange two elements of the same runtime array —
//
//	t1 = a[i]; t2 = a[j]; a[i] = t2; a[j] = t1
//
// The detector runs during the judgment pass with block-local tracking:
//
//   - value numbering pins runtime identity of reference values (two
//     getstatics of the same untouched field read the same array);
//   - unknown integers loaded from locals are freshened to per-slot
//     symbols, so the indices i and i+gap stay distinguishable even when
//     the fixed point knows nothing about them;
//   - aaload attaches element provenance (array value number, index,
//     sequence time) to the loaded value.
//
// Value numbers and provenance are facts of the judge pass alone, so they
// live beside the state, not in its Values: annotations holds rows
// parallel to ρ, stk and σ, which the tracker forks with the state.
//
// Two stores pair when they target the same array (by value number),
// their indices cross-match their values' source indices symbolically,
// both loads precede the first store, and nothing else touched the array
// (or called out) in between. Pairing is exactly what makes the protocol
// sound: each store's overwritten value is the other store's stored
// value, so the permuted array still contains every snapshot value, and
// any scan overlap is caught by the trace-state check.
//
// As the paper notes (§4.3 last paragraph), unsynchronized writes to the
// same array by concurrent mutator threads would invalidate the
// reasoning; the option is therefore opt-in, for programs that access
// rearranged arrays under a locking discipline or from a single thread.

// annot is what the detector knows of one value of a judge-pass state: vn
// is a value number pinning the runtime identity of a reference value (0:
// none), and eprov says the value was loaded from an array element.
type annot struct {
	vn    int32
	eprov *elemProv
}

// elemProv says a value was read from arr[idx] (array pinned by value
// number arrVN) at block-local time seq.
type elemProv struct {
	arrVN int32
	arr   RefSet
	idx   intval.IntVal
	seq   int
}

// annRow annotates one row of a state's values by position; positions past
// its end are unannotated.
type annRow []annot

func (r annRow) at(i int) annot {
	if i < len(r) {
		return r[i]
	}
	return annot{}
}

func (r *annRow) set(i int, a annot) {
	if i >= len(*r) {
		if a == (annot{}) {
			return
		}
		*r = append(*r, make(annRow, i+1-len(*r))...)
	}
	(*r)[i] = a
}

// cut drops the annotations of positions n and up.
func (r *annRow) cut(n int) {
	if len(*r) > n {
		*r = (*r)[:n]
	}
}

// annotations are the detector's rows parallel to a judge-pass state's ρ,
// stk and σ. A value keeps its annotation while it moves between them
// (load, store, dup, a strong field update and the read that returns it);
// a value a transfer function computes afresh has none. The state points to
// its tracker's rows while the judge pass simulates a block (state.ann), and
// the state methods that pop, truncate or overwrite entries drop their
// annotations.
type annotations struct {
	locals, stack, sigma annRow
}

// rearrangeTracker holds the block-local state of the detector.
type rearrangeTracker struct {
	ann     annotations
	seq     int
	nextVN  int32
	slotSym map[int]intval.IntVal // freshened unknown-int locals
	slotVN  map[int]int32         // value numbers for ref locals
	fieldVN map[fieldID]int32     // value numbers for static ref fields
	events  []storeEvent
	// clobbers are sequence points (calls, spawns) after which no pair
	// may span.
	clobbers []int
}

// storeEvent is one aastore observed during block simulation.
type storeEvent struct {
	pc    int
	seq   int
	arrVN int32
	arr   RefSet
	idx   intval.IntVal
	prov  *elemProv
}

func newRearrangeTracker() *rearrangeTracker {
	return &rearrangeTracker{
		slotSym: map[int]intval.IntVal{},
		slotVN:  map[int]int32{},
		fieldVN: map[fieldID]int32{},
	}
}

// fork clones the tracker for a successor block: straight-line flow into
// a single-predecessor block preserves all identities, but each successor
// accumulates its own events from there on.
func (rt *rearrangeTracker) fork() *rearrangeTracker {
	return &rearrangeTracker{
		ann: annotations{
			locals: slices.Clone(rt.ann.locals),
			stack:  slices.Clone(rt.ann.stack),
			sigma:  slices.Clone(rt.ann.sigma),
		},
		seq:      rt.seq,
		nextVN:   rt.nextVN,
		slotSym:  maps.Clone(rt.slotSym),
		slotVN:   maps.Clone(rt.slotVN),
		fieldVN:  maps.Clone(rt.fieldVN),
		events:   slices.Clone(rt.events),
		clobbers: slices.Clone(rt.clobbers),
	}
}

func (rt *rearrangeTracker) tick() int {
	rt.seq++
	return rt.seq
}

func (rt *rearrangeTracker) fresh() int32 {
	rt.nextVN++
	return rt.nextVN
}

// clobber forgets everything a call might invalidate.
func (rt *rearrangeTracker) clobber() {
	rt.clobbers = append(rt.clobbers, rt.tick())
	rt.fieldVN = map[fieldID]int32{}
}

// loadSlotInt freshens an unknown integer local to a stable per-slot
// symbol (killed when the slot is stored).
func (rt *rearrangeTracker) loadSlotInt(slot int, namer *intval.Namer) intval.IntVal {
	if v, ok := rt.slotSym[slot]; ok {
		return v
	}
	v := intval.OfConstU(namer.FreshConst())
	rt.slotSym[slot] = v
	return v
}

// loadSlotRef numbers a reference local.
func (rt *rearrangeTracker) loadSlotRef(slot int) int32 {
	if v, ok := rt.slotVN[slot]; ok {
		return v
	}
	v := rt.fresh()
	rt.slotVN[slot] = v
	return v
}

// killSlot forgets a stored-over local.
func (rt *rearrangeTracker) killSlot(slot int) {
	delete(rt.slotSym, slot)
	delete(rt.slotVN, slot)
}

// loadStaticRef numbers a static reference field (killed by putstatic to
// the field and by calls).
func (rt *rearrangeTracker) loadStaticRef(field fieldID) int32 {
	if v, ok := rt.fieldVN[field]; ok {
		return v
	}
	v := rt.fresh()
	rt.fieldVN[field] = v
	return v
}

// killStatic forgets an overwritten static.
func (rt *rearrangeTracker) killStatic(field fieldID) {
	delete(rt.fieldVN, field)
}

// recordStore notes an aastore.
func (rt *rearrangeTracker) recordStore(pc int, arrVN int32, arr RefSet, idx intval.IntVal, prov *elemProv) {
	rt.events = append(rt.events, storeEvent{
		pc: pc, seq: rt.tick(), arrVN: arrVN, arr: arr, idx: idx, prov: prov,
	})
}

// symEq is symbolic index equality; ⊤ never equals anything.
func symEq(a, b intval.IntVal) bool {
	return !a.IsTop() && !b.IsTop() && a.Equal(b)
}

// detectSwaps pairs the block's store events and records both pcs of each
// swap in out.
func (rt *rearrangeTracker) detectSwaps(out *Judgment) {
	evs := rt.events
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			e1, e2 := evs[i], evs[j]
			if e1.prov == nil || e2.prov == nil {
				continue
			}
			// One runtime array at all four endpoints.
			if e1.arrVN == 0 || e1.arrVN != e2.arrVN ||
				e1.prov.arrVN != e1.arrVN || e2.prov.arrVN != e1.arrVN {
				continue
			}
			// Cross-matching indices: each store writes to the slot the
			// other store's value came from.
			if !symEq(e1.idx, e2.prov.idx) || !symEq(e2.idx, e1.prov.idx) {
				continue
			}
			if symEq(e1.idx, e2.idx) {
				continue // degenerate self-swap
			}
			// Both loads precede the first store.
			if e1.prov.seq >= e1.seq || e2.prov.seq >= e1.seq {
				continue
			}
			if rt.interfered(min(e1.prov.seq, e2.prov.seq), e2.seq, i, j) {
				continue
			}
			out.earn(e1.pc, bytecode.VerdictRearrange)
			out.earn(e2.pc, bytecode.VerdictRearrange)
		}
	}
}

// interfered reports whether any call or other store to a possibly-equal
// array falls inside the (lo, hi) window.
func (rt *rearrangeTracker) interfered(lo, hi, skipI, skipJ int) bool {
	for _, c := range rt.clobbers {
		if c > lo && c < hi {
			return true
		}
	}
	win := rt.events[skipI].arr
	for k := range rt.events {
		if k == skipI || k == skipJ {
			continue
		}
		e := rt.events[k]
		if e.seq > lo && e.seq < hi && e.arr.Intersects(win) {
			return true
		}
	}
	return false
}
