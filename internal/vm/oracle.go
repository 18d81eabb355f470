package vm

import (
	"fmt"

	"satbelim/internal/heap"
	"satbelim/internal/satb"
)

// SoundnessViolation is the runtime elision oracle's finding: an elided
// barrier site whose dynamic execution contradicts the analysis claim that
// justified the elision. It carries enough context to localize the bug —
// the store site, the elision kind, the values involved, and where the
// target object was allocated.
type SoundnessViolation struct {
	Method string
	PC     int
	Line   int
	Site   satb.SiteKind
	Elide  satb.ElideKind
	// Pre is the overwritten value, New the stored value, Target the
	// object written into.
	Pre, New, Target heap.Ref
	// AllocSite is the "method:pc" location that allocated Target
	// (empty if unknown).
	AllocSite string
	Reason    string
}

func (e *SoundnessViolation) Error() string {
	return fmt.Sprintf("soundness violation at %s pc %d (line %d): elided %s store (%v): %s "+
		"[pre=%d new=%d target=%d alloc=%s]",
		e.Method, e.PC, e.Line, e.Site, e.Elide, e.Reason,
		e.Pre, e.New, e.Target, e.AllocSite)
}

// objMeta is the oracle's per-object shadow state.
type objMeta struct {
	allocSite string // "method:pc"
	owner     int    // allocating thread id
	escaped   bool   // published beyond the allocating thread
}

// oracle validates, at every elided store, the analysis claims behind the
// elision: the overwritten slot is null (pre-null sites) or null-or-same,
// and the target object is still thread-local at write time. Escape is
// tracked dynamically and underapproximates the analysis's non-thread-
// local set — an object only becomes escaped here when it is actually
// published (stored into a static, stored into an already-escaped object,
// handed to spawn, or touched by a foreign thread), each of which the
// flow-sensitive analysis also treats as an escape at the same
// instruction. A sound analysis therefore never trips the oracle; an
// unsound elision is caught at its first offending execution.
type oracle struct {
	h    *heap.Heap
	meta map[heap.Ref]*objMeta
	// spec is the run's barrier flavor: verdicts its soundness predicate
	// rejects must never reach an executing store.
	spec *satb.BarrierSpec
	// checks counts elided-store executions validated.
	checks int64
}

func newOracle(h *heap.Heap, spec *satb.BarrierSpec) *oracle {
	return &oracle{h: h, meta: map[heap.Ref]*objMeta{}, spec: spec}
}

// noteAlloc records the allocation site and owning thread of a new object.
func (o *oracle) noteAlloc(r heap.Ref, method string, pc, tid int) {
	o.meta[r] = &objMeta{allocSite: fmt.Sprintf("%s:%d", method, pc), owner: tid}
}

// escape marks the object and everything reachable from it as published.
func (o *oracle) escape(r heap.Ref) {
	if r == heap.Null {
		return
	}
	m := o.meta[r]
	if m == nil || m.escaped {
		return
	}
	m.escaped = true
	o.h.RefsOf(r, o.escape)
}

// allocSiteOf returns the recorded allocation site of r.
func (o *oracle) allocSiteOf(r heap.Ref) string {
	if m := o.meta[r]; m != nil {
		return m.allocSite
	}
	return ""
}

// checkStore validates one reference store and maintains escape state.
// method/pc/line locate the store site (both execution engines report the
// bytecode pc). pre is the overwritten value, newVal the stored value,
// target the written object. It returns a *SoundnessViolation when an
// elided site's dynamic execution contradicts the analysis claim.
func (o *oracle) checkStore(method string, pc, line, tid int, site satb.SiteKind, elide satb.ElideKind, pre, newVal, target heap.Ref) error {
	m := o.meta[target]
	// A store from a thread other than the allocator proves the object is
	// shared, whether or not a publication event was observed.
	if m != nil && m.owner != tid {
		m.escaped = true
	}
	violation := func(reason string) error {
		return &SoundnessViolation{
			Method: method, PC: pc, Line: line,
			Site: site, Elide: elide,
			Pre: pre, New: newVal, Target: target,
			AllocSite: o.allocSiteOf(target), Reason: reason,
		}
	}
	var err error
	if elide != satb.ElideNone && !o.spec.Sound(elide) {
		// Engines project every verdict through the flavor's soundness
		// predicate before executing with it; reaching here means a
		// cross-flavor elision leaked through (or the forceRawElide test
		// hook bypassed projection).
		o.checks++
		return violation(fmt.Sprintf("%s elision is unsound under the %s barrier flavor",
			elide, o.spec.Name))
	}
	switch elide {
	case satb.ElidePreNull:
		o.checks++
		switch {
		case pre != heap.Null:
			err = violation(fmt.Sprintf("overwritten slot holds non-null reference %d", pre))
		case m != nil && m.escaped:
			err = violation("target object escaped its allocating thread before the store")
		}
	case satb.ElideNullOrSame:
		o.checks++
		switch {
		case pre != heap.Null && pre != newVal:
			err = violation(fmt.Sprintf("overwritten slot holds a different non-null reference %d", pre))
		case m != nil && m.escaped:
			err = violation("target object escaped its allocating thread before the store")
		}
	case satb.ElideRearrange:
		// Rearrangement soundness is protocol-level (the trace-state
		// check plus the retrace list), validated end-to-end by the
		// snapshot-invariant checker; the oracle verifies the structural
		// precondition that the flagged site really writes an array.
		o.checks++
		if obj := o.h.Get(target); !obj.IsNil() && !obj.IsArray() {
			err = violation("rearrangement site writes a non-array object")
		}
	}
	// Maintain escape state after the check: publishing into an escaped
	// object publishes the stored value.
	if m != nil && m.escaped {
		o.escape(newVal)
	}
	return err
}
