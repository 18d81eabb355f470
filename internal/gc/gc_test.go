package gc

import (
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
)

func newHeap() *heap.Heap {
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "next", Type: bytecode.ClassType("T")},
	}})
	return heap.New(heap.NewLayout(p))
}

// alloc allocates a T.
func alloc(h *heap.Heap) heap.Ref { return h.AllocObjectN("T", 1) }

// setNext stores v in r's next field (slot 0) and returns the overwritten
// value, the barrier's pre-value.
func setNext(h *heap.Heap, r heap.Ref, v heap.Value) heap.Value {
	p := &h.Get(r).Fields[0]
	old := *p
	*p = v
	return old
}

// chain builds a linked list of n objects and returns the head.
func chain(h *heap.Heap, n int) heap.Ref {
	var head heap.Ref
	for i := 0; i < n; i++ {
		r := alloc(h)
		setNext(h, r, heap.RefVal(head))
		head = r
	}
	return head
}

func TestSATBMarksReachable(t *testing.T) {
	h := newHeap()
	head := chain(h, 10)
	garbage := alloc(h)
	_ = garbage

	m := NewSATB(h)
	m.Start([]heap.Ref{head}, true)
	for !m.Step(4) {
	}
	m.Finish([]heap.Ref{head})
	if err := m.CheckSnapshotInvariant(); err != nil {
		t.Fatal(err)
	}
	if m.MarkedCount != 10 {
		t.Errorf("marked = %d, want 10", m.MarkedCount)
	}
	if freed := h.Sweep(); freed != 1 {
		t.Errorf("freed = %d, want 1 (the garbage object)", freed)
	}
}

func TestSATBLogPreservesUnlinkedSubgraph(t *testing.T) {
	// Build a -> b; start marking with root a; before the marker reaches
	// b, unlink it (a.next = null) with the barrier logging b. b is part
	// of the snapshot and must still be marked.
	h := newHeap()
	a := alloc(h)
	b := alloc(h)
	setNext(h, a, heap.RefVal(b))

	m := NewSATB(h)
	m.Start([]heap.Ref{a}, true)
	// Mutator overwrites before any marking work happens.
	old := setNext(h, a, heap.NullVal())
	if old != heap.RefVal(b) {
		t.Fatal("test setup: pre-value should be b")
	}
	m.LogPreValue(heap.Ref(old)) // the write barrier's job
	for !m.Step(1) {
	}
	m.Finish([]heap.Ref{a})
	if err := m.CheckSnapshotInvariant(); err != nil {
		t.Fatalf("snapshot invariant: %v", err)
	}
	if !h.Marked(b) {
		t.Error("logged pre-value must be marked")
	}
}

func TestSATBWithoutLogMissesSnapshotObject(t *testing.T) {
	// The negative control: same scenario without the barrier log. The
	// invariant checker must notice. (This is what a wrong elision would
	// cause.)
	h := newHeap()
	a := alloc(h)
	b := alloc(h)
	setNext(h, a, heap.RefVal(b))

	m := NewSATB(h)
	m.Start([]heap.Ref{a}, true)
	setNext(h, a, heap.NullVal()) // no log: simulated bad elision
	for !m.Step(1) {
	}
	m.Finish([]heap.Ref{a})
	if err := m.CheckSnapshotInvariant(); err == nil {
		t.Fatal("invariant checker must detect the unlogged unlink")
	}
}

func TestSATBAllocDuringMarkImplicitlyLive(t *testing.T) {
	h := newHeap()
	root := alloc(h)
	m := NewSATB(h)
	m.Start([]heap.Ref{root}, false)
	fresh := alloc(h) // allocated while marking
	for !m.Step(4) {
	}
	m.Finish([]heap.Ref{root})
	if h.Sweep() != 0 {
		t.Error("object allocated during marking must survive")
	}
	if h.Get(fresh).IsNil() {
		t.Error("fresh object swept")
	}
}

func TestIncrementalUpdateRescansDirty(t *testing.T) {
	// a is marked early; then the mutator stores a new edge a -> c. The
	// dirty card must cause c to be found in the final phase.
	h := newHeap()
	a := alloc(h)
	m := NewInc(h)
	m.Start([]heap.Ref{a}, false)
	for !m.Step(8) {
	} // a fully scanned, marking "done"
	c := alloc(h)
	setNext(h, a, heap.RefVal(c))
	m.DirtyCard(a)
	m.Finish([]heap.Ref{a})
	if !h.Marked(c) {
		t.Error("incremental update must mark via dirty rescan")
	}
}

func TestIncrementalFinalPauseGrowsWithDirtyVolume(t *testing.T) {
	// SATB's final pause should be much smaller than incremental
	// update's when many objects are modified during marking — the
	// paper's core motivation for SATB.
	build := func(kind string) int {
		h := newHeap()
		root := alloc(h)
		var m Marker
		if kind == "satb" {
			m = NewSATB(h)
		} else {
			m = NewInc(h)
		}
		m.Start([]heap.Ref{root}, false)
		// Mutator: allocate and initialize 200 objects during marking.
		prev := root
		for i := 0; i < 200; i++ {
			r := alloc(h)
			pre := setNext(h, r, heap.RefVal(prev))
			// Initializing store: pre-value null. SATB logs nothing;
			// card marking dirties the object.
			if pre != heap.NullVal() {
				t.Fatal("expected initializing store")
			}
			m.DirtyCard(r) // card barrier fires regardless of pre-value
			prev = r
		}
		m.Step(4)
		return m.Finish([]heap.Ref{root, prev})
	}
	satbPause := build("satb")
	incPause := build("inc")
	if satbPause >= incPause {
		t.Errorf("SATB final pause (%d) should be smaller than incremental update's (%d)", satbPause, incPause)
	}
}

func TestReachableComputesClosure(t *testing.T) {
	h := newHeap()
	head := chain(h, 5)
	lone := alloc(h)
	set := Reachable(h, []heap.Ref{head})
	if len(set) != 5 {
		t.Errorf("reachable = %d, want 5", len(set))
	}
	if set[lone] {
		t.Error("lone object must not be reachable")
	}
}

func TestSATBStepBudgetIsIncremental(t *testing.T) {
	h := newHeap()
	head := chain(h, 50)
	m := NewSATB(h)
	m.Start([]heap.Ref{head}, false)
	done := m.Step(10)
	if done {
		t.Fatal("50-object chain cannot finish in 10 steps")
	}
	steps := 1
	for !m.Step(10) {
		steps++
		if steps > 100 {
			t.Fatal("marking did not finish")
		}
	}
	if m.MarkedCount != 50 {
		t.Errorf("marked = %d", m.MarkedCount)
	}
}

// TestIncrementalDirtyOrderIsPinned: the final pause rescans the dirty set
// in the order the card barrier first saw the objects, so its counts are
// the same on every run. The order decides FinalPauseWork: a dirty object
// costs a rescan only if it is marked by the time it is visited. Here a
// chain root -> o[n-1] -> ... -> o[0] is built while marking and dirtied
// from the root down, so each rescan marks the next object visited and all
// n count. Visited from o[1] up only the root would (n+3 in total), and the
// map this list replaced gave anything in between.
func TestIncrementalDirtyOrderIsPinned(t *testing.T) {
	const n = 64
	for rep := 0; rep < 20; rep++ {
		h := newHeap()
		root := alloc(h)
		m := NewInc(h)
		m.Start([]heap.Ref{root}, false)
		for !m.Step(8) {
		} // root scanned, marking "done"
		o := make([]heap.Ref, n)
		for i := range o {
			o[i] = alloc(h)
		}
		setNext(h, root, heap.RefVal(o[n-1]))
		m.DirtyCard(root)
		for i := n - 1; i > 0; i-- {
			setNext(h, o[i], heap.RefVal(o[i-1]))
			m.DirtyCard(o[i])
			m.DirtyCard(o[i]) // a card is seen once
		}
		m.DirtyCard(heap.Null)
		work := m.Finish([]heap.Ref{root})
		if m.CardsSeen != n || m.MarkedCount != n+1 {
			t.Fatalf("rep %d: CardsSeen = %d, MarkedCount = %d, want %d and %d", rep, m.CardsSeen, m.MarkedCount, n, n+1)
		}
		// Round one: 1 root, n rescans, n newly marked. Round two: 1 root.
		if want := 2*n + 2; work != want || m.FinalPauseWork != want {
			t.Fatalf("rep %d: FinalPauseWork = %d (Finish returned %d), want %d", rep, m.FinalPauseWork, work, want)
		}
	}
}

// mixed is a heap over class M {int i0; M r1; int i2; M r3; static int s}:
// reference fields at non-contiguous slots, and an int static.
func mixed() *heap.Heap {
	p := bytecode.NewProgram()
	m := bytecode.ClassType("M")
	p.AddClass(&bytecode.Class{Name: "M", Fields: []*bytecode.Field{
		{Name: "i0", Type: bytecode.Int}, {Name: "r1", Type: m},
		{Name: "i2", Type: bytecode.Int}, {Name: "r3", Type: m},
		{Name: "s", Type: bytecode.Int, Static: true},
	}})
	return heap.New(heap.NewLayout(p))
}

// markers makes each of the two collectors over a heap.
var markers = map[string]func(*heap.Heap) Marker{
	"satb": func(h *heap.Heap) Marker { return NewSATB(h) },
	"inc":  func(h *heap.Heap) Marker { return NewInc(h) },
}

// cycle runs one whole marking cycle of m over h from roots and the heap's
// static roots.
func cycle(m Marker, h *heap.Heap, roots ...heap.Ref) {
	m.Start(h.AppendStaticRoots(roots), false)
	m.Finish(roots)
}

// TestMarkerReadsOnlyReferenceWords: the marker finds references by the
// object's class, never by the word's value. An int field, an int static
// and an int-array element each hold the Ref of an object nothing
// references; every one of those objects is swept. Reference fields at
// slots 1 and 3, with ints between them, are both shaded.
func TestMarkerReadsOnlyReferenceWords(t *testing.T) {
	for name, newMarker := range markers {
		t.Run(name, func(t *testing.T) { markOnlyReferenceWords(t, newMarker) })
	}
}

func markOnlyReferenceWords(t *testing.T, newMarker func(*heap.Heap) Marker) {
	h := mixed()
	root, left, right := h.AllocObjectN("M", 4), h.AllocObjectN("M", 4), h.AllocObjectN("M", 4)
	victims := []heap.Ref{h.AllocObjectN("M", 4), h.AllocObjectN("M", 4), h.AllocObjectN("M", 4)}
	ints := h.AllocArray(false, 3)
	o := h.Get(root)
	o.Fields[0] = heap.IntVal(int64(victims[0]))
	o.Fields[1] = heap.RefVal(left)
	o.Fields[2] = heap.IntVal(int64(victims[0]))
	o.Fields[3] = heap.RefVal(right)
	h.Get(left).Fields[1] = heap.RefVal(ints)
	h.Get(ints).Fields[2] = heap.IntVal(int64(victims[1]))
	*h.Static(0) = heap.IntVal(int64(victims[2]))
	cycle(newMarker(h), h, root)
	for _, r := range []heap.Ref{root, left, right, ints} {
		if !h.Marked(r) {
			t.Errorf("reachable object %d not marked", r)
		}
	}
	if freed := h.Sweep(); freed != len(victims) {
		t.Errorf("swept %d, want the %d objects only ints named", freed, len(victims))
	}
	for _, r := range victims {
		if !h.Get(r).IsNil() {
			t.Errorf("object %d, named only by an int, survived", r)
		}
	}
}

// TestMarkingByNameAllocatedObjects: an object allocated by class name and
// linked by writing its Fields directly, as a heap's embedder may, is
// traced like one the VM allocated.
func TestMarkingByNameAllocatedObjects(t *testing.T) {
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "a", Type: bytecode.ClassType("T")}, {Name: "b", Type: bytecode.ClassType("T")},
	}})
	for name, newMarker := range markers {
		h := heap.New(heap.NewLayout(p))
		refs := make([]heap.Ref, 4)
		for i := range refs {
			refs[i] = h.AllocObjectN("T", 2)
		}
		h.Get(refs[0]).Fields[1] = heap.RefVal(refs[1])
		h.Get(refs[1]).Fields[0] = heap.RefVal(refs[2])
		h.Get(refs[1]).Fields[1] = heap.NullVal()
		cycle(newMarker(h), h, refs[0])
		if freed := h.Sweep(); freed != 1 || !h.Get(refs[3]).IsNil() || h.Get(refs[2]).IsNil() {
			t.Errorf("%s: swept %d; want only the unlinked object", name, freed)
		}
	}
}

// TestReleaseMidCycle: a marker released while its gray stack still holds
// objects leaves the next marker's cycle exact, and can itself start again
// with another stack.
func TestReleaseMidCycle(t *testing.T) {
	for name, newMarker := range markers {
		t.Run(name, func(t *testing.T) {
			h := newHeap()
			head := chain(h, 10)
			a := newMarker(h)
			a.Start([]heap.Ref{head}, false)
			a.Release()

			h2 := newHeap()
			head2 := chain(h2, 3)
			b := newMarker(h2)
			cycle(b, h2, head2)
			b.Release()
			if got := b.Stats().Marked; got != 3 {
				t.Errorf("the next marker marked %d objects, want 3", got)
			}
			cycle(a, h, head)
			a.Release()
			if got := a.Stats().Marked; got != 10 {
				t.Errorf("the released marker marked %d objects in its next cycle, want 10", got)
			}
		})
	}
}

// TestReleasedGrayStackIsBounded: Release puts a marker's gray stack back
// for the next marker only when it holds at most grayStackMax entries; a
// larger one is left to the Go collector and its box goes back empty.
func TestReleasedGrayStackIsBounded(t *testing.T) {
	for name, newMarker := range markers {
		for _, n := range []int{100, grayStackMax + 1} {
			h := newHeap()
			roots := make([]heap.Ref, n)
			for i := range roots {
				roots[i] = alloc(h)
			}
			m := newMarker(h)
			m.Start(roots, false)
			var tr *tracer
			switch m := m.(type) {
			case *SATBMarker:
				tr = &m.tracer
			case *IncMarker:
				tr = &m.tracer
			}
			box, grown := tr.box, cap(tr.gray)
			if grown < n {
				t.Fatalf("%s: a cycle with %d gray roots grew its stack to %d entries", name, n, grown)
			}
			m.Release()
			kept := cap(*box)
			if n <= grayStackMax && kept != grown {
				t.Errorf("%s: a stack of %d entries went back as %d", name, grown, kept)
			}
			if n > grayStackMax && kept != 0 {
				t.Errorf("%s: a stack of %d entries went back as %d, want none past %d", name, grown, kept, grayStackMax)
			}
		}
	}
}
