// Package gc implements two concurrent-marking collectors over the VM
// heap:
//
//   - SATBMarker: snapshot-at-the-beginning marking (Yuasa-style), the
//     collector whose write barriers the paper's analyses elide. The
//     mutator logs overwritten non-null references; objects allocated
//     during marking are implicitly live; the marker traces the logical
//     snapshot taken at mark start.
//
//   - IncMarker: a mostly-parallel incremental-update baseline (Boehm,
//     Demers, Shenker): a cheap dirty-card barrier records modified
//     objects, which a final stop-the-world phase rescans.
//
// Both are driven in deterministic steps interleaved with the interpreter
// (cooperative simulation of concurrency), and both report how much work
// their final pause required — reproducing the paper's observation that
// SATB completion pauses are far smaller than incremental-update rescans.
package gc

import (
	"fmt"
	"sync"

	"satbelim/internal/heap"
)

// Marker is the collector interface the VM drives. It doubles as the
// satb.Logger sink for barrier traffic.
type Marker interface {
	Start(roots []heap.Ref, recordSnapshot bool)
	// Step performs up to n units of concurrent marking work; it reports
	// whether the concurrent phase has nothing left to do.
	Step(n int) bool
	// Finish runs the final (stop-the-world) phase with the mutator's
	// current roots and ends the cycle. It returns the number of objects
	// scanned during the pause.
	Finish(roots []heap.Ref) int
	MarkingActive() bool
	LogPreValue(r heap.Ref)
	// Shade greys a reference installed by the mutator (insertion
	// shading, the Dijkstra/hybrid barriers' collector half).
	Shade(r heap.Ref)
	DirtyCard(r heap.Ref)
	// TraceStateOf reports the collector's scan progress on an array
	// (§4.3 rearrangement protocol); Retrace schedules the array for a
	// full rescan in the final pause.
	TraceStateOf(r heap.Ref) heap.TraceState
	Retrace(r heap.Ref)
	// Stats reports the current (or just-finished) cycle's work counts —
	// the observability layer attaches them to per-cycle trace spans.
	Stats() CycleStats
	// Release hands the marker's gray stack to the next marker. Call it
	// once the marker's last cycle is over; a later Start takes another.
	Release()
}

// CycleStats summarizes one marking cycle's work.
type CycleStats struct {
	// Marked counts objects marked this cycle; Steps counts concurrent
	// marking work units; FinalPauseWork is the final pause's scan count.
	Marked         int
	Steps          int
	FinalPauseWork int
	// LogEntries counts SATB barrier log entries drained (SATB marker);
	// CardsSeen counts dirty objects recorded (incremental marker).
	LogEntries int
	CardsSeen  int
	// ShadeEntries counts insertion-shading events delivered by the
	// Dijkstra/hybrid barriers.
	ShadeEntries int
	// Retraces counts arrays rescanned by the §4.3 rearrangement
	// protocol.
	Retraces int
}

// tracer is the marking core both collectors share: the gray stack and
// the loops that shade and scan. Objects are scanned where they lie, by
// their class word: heap.Mark per reference slot, no callback, and no
// look at an int.
type tracer struct {
	h    *heap.Heap
	gray []heap.Ref
	// box holds the gray stack between markers: taken from grayStacks at
	// the first begin, kept across the marker's cycles, put back by
	// Release.
	box *[]heap.Ref

	// MarkedCount counts objects marked this cycle.
	MarkedCount int
}

// grayStacks holds the gray stacks of released markers, boxed so that
// putting one back allocates nothing. An idle stack the pool drops at the
// Go collector's second cycle.
var grayStacks = sync.Pool{New: func() any { return new([]heap.Ref) }}

// Release empties the gray stack and puts it back in grayStacks.
func (t *tracer) Release() {
	if t.box == nil {
		return
	}
	*t.box = t.gray[:0]
	grayStacks.Put(t.box)
	t.box, t.gray = nil, nil
}

// shade greys an object if white.
func (t *tracer) shade(r heap.Ref) {
	if t.h.Mark(r) {
		t.MarkedCount++
		t.gray = append(t.gray, r)
	}
}

// begin starts a cycle: the heap's new epoch clears every mark and trace
// state, allocation turns black and the roots grey (the initial pause).
func (t *tracer) begin(roots []heap.Ref) {
	if t.box == nil {
		t.box = grayStacks.Get().(*[]heap.Ref)
		t.gray = *t.box
	}
	t.gray, t.MarkedCount = t.gray[:0], 0
	t.h.BeginCycle()
	t.h.MarkingActive = true
	for _, r := range roots {
		t.shade(r)
	}
}

// scan shades every outgoing reference of the object r names, if any.
func (t *tracer) scan(r heap.Ref) {
	fs, slots, all := t.h.RefWords(r)
	if all {
		for _, w := range fs {
			t.shade(heap.Ref(w))
		}
		return
	}
	for _, slot := range slots {
		t.shade(heap.Ref(fs[slot]))
	}
}

// SATBMarker is the snapshot-at-the-beginning concurrent marker.
type SATBMarker struct {
	tracer
	buf    []heap.Ref // SATB log buffer (drained by Step)
	active bool
	// retrace lists arrays whose rearrangement overlapped the scan; they
	// are rescanned in the final pause (§4.3's "special retrace list").
	retrace []heap.Ref

	// snapshot is the set of objects reachable at mark start, recorded
	// for the invariant check (tests only).
	snapshot map[heap.Ref]bool

	// StepsDone counts marking work units; FinalPauseWork is the last
	// Finish's scan count.
	StepsDone      int
	FinalPauseWork int
	LogEntries     int
	ShadeEntries   int
	// RetraceCount counts arrays rescanned by the rearrangement
	// protocol this cycle.
	RetraceCount int
}

// NewSATB returns a marker over the heap.
func NewSATB(h *heap.Heap) *SATBMarker { return &SATBMarker{tracer: tracer{h: h}} }

// Start begins a marking cycle (tracer.begin), recording the snapshot for
// CheckSnapshotInvariant when asked to.
func (m *SATBMarker) Start(roots []heap.Ref, recordSnapshot bool) {
	m.active = true
	m.buf, m.retrace = m.buf[:0], m.retrace[:0]
	m.StepsDone, m.LogEntries, m.ShadeEntries, m.RetraceCount = 0, 0, 0, 0
	m.begin(roots)
	m.snapshot = nil
	if recordSnapshot {
		m.snapshot = Reachable(m.h, roots)
	}
}

// MarkingActive reports whether a cycle is in progress.
func (m *SATBMarker) MarkingActive() bool { return m.active }

// LogPreValue receives an overwritten reference from the write barrier.
func (m *SATBMarker) LogPreValue(r heap.Ref) {
	if !m.active {
		return
	}
	m.LogEntries++
	m.buf = append(m.buf, r)
}

// Shade receives a stored reference from an insertion-shading barrier.
// Like pre-value log entries it is buffered and drained by Step, so
// insertion shading does the marker's tracing work on the marker's
// schedule, not the mutator's.
func (m *SATBMarker) Shade(r heap.Ref) {
	if !m.active || r == heap.Null {
		return
	}
	m.ShadeEntries++
	m.buf = append(m.buf, r)
}

// Stats reports this cycle's work counts.
func (m *SATBMarker) Stats() CycleStats {
	return CycleStats{Marked: m.MarkedCount, Steps: m.StepsDone,
		FinalPauseWork: m.FinalPauseWork, LogEntries: m.LogEntries,
		ShadeEntries: m.ShadeEntries, Retraces: m.RetraceCount}
}

// DirtyCard is a no-op for SATB marking.
func (m *SATBMarker) DirtyCard(heap.Ref) {}

// Step drains up to n grey objects (and buffered log entries).
func (m *SATBMarker) Step(n int) bool {
	for i := 0; i < n; i++ {
		if len(m.buf) > 0 {
			r := m.buf[len(m.buf)-1]
			m.buf = m.buf[:len(m.buf)-1]
			m.shade(r)
			m.StepsDone++
			continue
		}
		if len(m.gray) == 0 {
			return true
		}
		r := m.gray[len(m.gray)-1]
		m.gray = m.gray[:len(m.gray)-1]
		// Publish the scan to the rearrangement protocol: a flagged store
		// that finds the array not TraceUntraced requests a retrace. A
		// scan is atomic to the mutator here (Step runs between quanta),
		// so nothing could observe TraceTracing and only the end state is
		// written. A swept object has nothing to scan and takes no state.
		m.scan(r)
		m.h.SetTraceState(r, heap.TraceTraced)
		m.StepsDone++
	}
	return len(m.gray) == 0 && len(m.buf) == 0
}

// TraceStateOf reports the scan progress on an object.
func (m *SATBMarker) TraceStateOf(r heap.Ref) heap.TraceState { return m.h.TraceStateOf(r) }

// Retrace schedules an array for a final-pause rescan.
func (m *SATBMarker) Retrace(r heap.Ref) {
	if m.active && r != heap.Null {
		m.retrace = append(m.retrace, r)
	}
}

// Finish completes the cycle: the final pause rescans the mutator's
// current roots (stack contents may hold snapshot objects loaded during
// marking) and drains remaining work. SATB needs no heap rescans here —
// that is the source of its short completion pauses.
func (m *SATBMarker) Finish(roots []heap.Ref) int {
	work := 0
	for _, r := range roots {
		m.shade(r)
	}
	for !m.Step(64) {
		work += 64
	}
	// Rescan arrays whose rearrangement may have raced the scan (§4.3's
	// retrace list, processed "perhaps with mutators stopped, to prevent
	// livelock" — here the mutator is stopped by construction).
	for _, r := range m.retrace {
		if !m.h.Marked(r) {
			continue // unreachable arrays need no retrace
		}
		m.scan(r)
		m.RetraceCount++
		work++
	}
	m.retrace = m.retrace[:0]
	for !m.Step(64) {
		work += 64
	}
	// Count residual draining as pause work at step granularity.
	work += len(roots)
	m.FinalPauseWork = work
	m.active = false
	m.h.MarkingActive = false
	return work
}

// CheckSnapshotInvariant verifies the SATB guarantee: every object
// reachable at mark start is marked at mark end. It must be called after
// Finish and before Sweep, on a marker started with recordSnapshot.
func (m *SATBMarker) CheckSnapshotInvariant() error {
	if m.snapshot == nil {
		return fmt.Errorf("gc: no snapshot recorded")
	}
	for r := range m.snapshot {
		if m.h.Get(r).IsNil() {
			return fmt.Errorf("gc: snapshot object %d vanished during marking", r)
		}
		if !m.h.Marked(r) && !m.h.AllocDuringMark(r) {
			return fmt.Errorf("gc: SATB invariant violated: snapshot-reachable object %d not marked", r)
		}
	}
	return nil
}

// Reachable computes the set of objects reachable from roots.
func Reachable(h *heap.Heap, roots []heap.Ref) map[heap.Ref]bool {
	seen := map[heap.Ref]bool{}
	var stack []heap.Ref
	push := func(r heap.Ref) {
		if r != heap.Null && !seen[r] && !h.Get(r).IsNil() {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.RefsOf(r, push)
	}
	return seen
}

// IncMarker is the mostly-parallel incremental-update baseline.
type IncMarker struct {
	tracer
	// dirty lists the objects modified this cycle, in the order the card
	// barrier first saw them; the heap's dirty flag keeps it duplicate-free.
	dirty  []heap.Ref
	active bool

	StepsDone      int
	FinalPauseWork int
	CardsSeen      int
	ShadeEntries   int
}

// NewInc returns an incremental-update marker.
func NewInc(h *heap.Heap) *IncMarker { return &IncMarker{tracer: tracer{h: h}} }

// Stats reports this cycle's work counts.
func (m *IncMarker) Stats() CycleStats {
	return CycleStats{Marked: m.MarkedCount, Steps: m.StepsDone,
		FinalPauseWork: m.FinalPauseWork, CardsSeen: m.CardsSeen,
		ShadeEntries: m.ShadeEntries}
}

// Start begins a cycle (tracer.begin).
func (m *IncMarker) Start(roots []heap.Ref, recordSnapshot bool) {
	m.active = true
	m.dirty = m.dirty[:0]
	m.StepsDone, m.CardsSeen, m.ShadeEntries = 0, 0, 0
	m.begin(roots)
}

// MarkingActive reports whether a cycle is in progress.
func (m *IncMarker) MarkingActive() bool { return m.active }

// LogPreValue is a no-op for incremental update.
func (m *IncMarker) LogPreValue(heap.Ref) {}

// Shade greys a stored reference immediately: incremental update has no
// deferred log, so insertion shading marks on the spot.
func (m *IncMarker) Shade(r heap.Ref) {
	if !m.active || r == heap.Null {
		return
	}
	m.ShadeEntries++
	m.shade(r)
}

// TraceStateOf always reports untraced: incremental update has no
// rearrangement protocol (flagged stores fall back to card marking).
func (m *IncMarker) TraceStateOf(heap.Ref) heap.TraceState { return heap.TraceUntraced }

// Retrace records the array as dirty, the closest equivalent.
func (m *IncMarker) Retrace(r heap.Ref) { m.DirtyCard(r) }

// DirtyCard records a modified object for rescanning.
func (m *IncMarker) DirtyCard(r heap.Ref) {
	if m.active && m.h.MarkDirty(r) {
		m.dirty = append(m.dirty, r)
		m.CardsSeen++
	}
}

// Step drains up to n grey objects.
func (m *IncMarker) Step(n int) bool {
	for i := 0; i < n; i++ {
		if len(m.gray) == 0 {
			return true
		}
		r := m.gray[len(m.gray)-1]
		m.gray = m.gray[:len(m.gray)-1]
		m.scan(r)
		m.StepsDone++
	}
	return len(m.gray) == 0
}

// Finish is the stop-the-world completion: rescan roots and every dirty
// object, repeatedly, until no new objects get marked. The rescan volume —
// which includes every initializing store's object — is what makes
// incremental-update completion pauses long (§1).
func (m *IncMarker) Finish(roots []heap.Ref) int {
	work := 0
	for {
		before := m.MarkedCount
		for _, r := range roots {
			m.shade(r)
		}
		work += len(roots)
		for _, r := range m.dirty {
			if m.h.Marked(r) {
				m.scan(r)
				work++
			}
		}
		m.dirty = m.dirty[:0]
		for !m.Step(64) {
		}
		work += m.MarkedCount - before
		if m.MarkedCount == before {
			break
		}
	}
	m.FinalPauseWork = work
	m.active = false
	m.h.MarkingActive = false
	return work
}
