package heap

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"satbelim/internal/bytecode"
)

// modelObj is what the reference model knows about one allocated object.
type modelObj struct {
	live     bool
	array    bool
	elemRef  bool
	refSlots []int32 // an instance's, from its class's declaration
	words    []Value
	// fields is the object's Fields as Get returned them at allocation:
	// they must alias the object's storage until it is swept.
	fields []Value

	marked, allocBit, dirty bool
	trace                   TraceState
}

// heapModel is a plain reference implementation of the heap's contract:
// every object a record in a map, every cycle flag a bool.
type heapModel struct {
	objs          map[Ref]*modelObj
	issued        Ref
	markingActive bool
}

// beginCycle clears every object's cycle flags.
func (m *heapModel) beginCycle() {
	for _, o := range m.objs {
		o.marked, o.allocBit, o.dirty, o.trace = false, false, false, TraceUntraced
	}
}

// live returns the model's record of r if r names a live object.
func (m *heapModel) live(r Ref) *modelObj {
	if o := m.objs[r]; o != nil && o.live {
		return o
	}
	return nil
}

// declaredRefSlots numbers a class's instance fields in declaration order
// and lists the reference ones: the layout the heap must follow, derived
// from the declaration rather than the symbol table.
func declaredRefSlots(c *bytecode.Class) (n int, refs []int32) {
	for _, f := range c.Fields {
		if f.Static {
			continue
		}
		if f.Type.IsRef() {
			refs = append(refs, int32(n))
		}
		n++
	}
	return n, refs
}

// TestHeapMatchesModel runs seeded random sequences of allocations, word
// writes and collector operations against the heap and a map-based model
// of it, and after every operation compares what Get, RefElems,
// RefFields, the words and the collector flags say about every Ref issued
// (and a few never issued) with what the model says.
//
// Each sequence runs twice: on a new heap, and again, after that heap's
// Release, on the next heap New makes, which takes its memory. Before the
// release every live object's words are set nonzero, so storage that is
// handed out again without being zeroed shows as a word the model does
// not hold; and after every operation the unallocated slots of the last
// chunk must be dead and the rest of the current block zero. A pool may
// drop what it is given (the race detector's drops a quarter of it, and
// a Go collection empties it), so when the next heap finds another arena
// the first run is made again, up to ten times.
func TestHeapMatchesModel(t *testing.T) {
	p := testProgram()
	const seeds, tries = 5, 10
	for seed := int64(1); seed <= seeds; seed++ {
		var next *Heap
		var spare map[unsafe.Pointer]bool
		for try := 1; next == nil; try++ {
			if try > tries {
				t.Fatalf("seed %d: in %d tries no next heap took the released heap's arena", seed, tries)
			}
			h := New(NewLayout(p))
			replayModel(t, p, h, seed)
			a := h.arena
			issued := Ref(h.Allocated)
			for r := Ref(1); r <= issued; r++ {
				fs := h.Get(r).Fields
				for i := range fs {
					fs[i] = -1
				}
			}
			*h.Static(0) = RefVal(1)
			h.Release()
			for r := Ref(-1); r <= issued+2; r++ {
				if !h.Get(r).IsNil() || h.FieldSlot(r, 0) != nil || h.ElemSlot(r, 0) != nil || h.ArrayLen(r) != -1 || h.Mark(r) {
					t.Fatalf("seed %d: ref %d names an object after Release", seed, r)
				}
			}
			if *h.Static(0) != RefVal(1) {
				t.Fatalf("seed %d: Release lost a static", seed)
			}
			spare = map[unsafe.Pointer]bool{}
			for _, c := range a.chunks {
				spare[unsafe.Pointer(c)] = true
			}
			for _, b := range a.blocks {
				spare[unsafe.Pointer(b)] = true
			}
			if next = New(NewLayout(p)); next.arena != a {
				next.Release()
				next = nil
			}
		}
		replayModel(t, p, next, seed)
		reused := 0
		for _, c := range next.chunks {
			if spare[unsafe.Pointer(c)] {
				reused++
			}
		}
		for _, b := range next.blocks {
			if spare[unsafe.Pointer(b.mem)] {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("seed %d: the next heap reused none of the released chunks and blocks", seed)
		}
		next.Release()
	}
}

// replayModel runs seed's operations on h and a fresh model.
func replayModel(t *testing.T, p *bytecode.Program, h *Heap, seed int64) {
	t.Helper()
	const opsPerSeed = 2_500
	classes := p.SortedClasses()
	rng := rand.New(rand.NewSource(seed))
	m := &heapModel{objs: map[Ref]*modelObj{}}
	anyRef := func() Ref { return Ref(rng.Int63n(int64(m.issued)+3) - 1) }
	for op := 0; op < opsPerSeed; op++ {
		switch k := rng.Intn(100); {
		case k < 25:
			c := classes[rng.Intn(len(classes))]
			n, refs := declaredRefSlots(c)
			r := h.AllocObject(p.Symbols().Class(c.Name))
			m.add(t, h, r, &modelObj{refSlots: refs, words: make([]Value, n)})
		case k < 40:
			var n int64
			switch rng.Intn(3) {
			case 1:
				n = 1 + rng.Int63n(carveMax)
			case 2:
				n = carveMax + 1 + rng.Int63n(2*carveMax)
			}
			ref := rng.Intn(2) == 0
			r := h.AllocArray(ref, n)
			m.add(t, h, r, &modelObj{array: true, elemRef: ref, words: make([]Value, n)})
		case k < 70:
			// A word write, through Get or through the Fields the
			// object was allocated with.
			r := anyRef()
			o := m.live(r)
			if o == nil || len(o.words) == 0 {
				continue
			}
			i := rng.Intn(len(o.words))
			w := Value(rng.Int63n(int64(m.issued) + 1))
			if rng.Intn(2) == 0 {
				h.Get(r).Fields[i] = w
			} else {
				o.fields[i] = w
			}
			o.words[i] = w
		case k < 73:
			h.BeginCycle()
			m.beginCycle()
		case k < 83:
			r := anyRef()
			o := m.live(r)
			if got := h.Mark(r); got != (o != nil && !o.marked) {
				t.Fatalf("seed %d op %d: Mark(%d) = %v", seed, op, r, got)
			}
			if o != nil {
				o.marked = true
			}
		case k < 88:
			r := anyRef()
			o := m.live(r)
			if got := h.MarkDirty(r); got != (o != nil && !o.dirty) {
				t.Fatalf("seed %d op %d: MarkDirty(%d) = %v", seed, op, r, got)
			}
			if o != nil {
				o.dirty = true
			}
		case k < 93:
			r, ts := anyRef(), TraceState(rng.Intn(3))
			h.SetTraceState(r, ts)
			if o := m.live(r); o != nil {
				o.trace = ts
			}
		case k < 95:
			h.MarkingActive = !h.MarkingActive
			m.markingActive = h.MarkingActive
		default:
			want := 0
			for _, o := range m.objs {
				if o.live && !o.marked && !o.allocBit {
					o.live, o.fields = false, nil
					want++
				}
			}
			m.beginCycle()
			if got := h.Sweep(); got != want {
				t.Fatalf("seed %d op %d: Sweep freed %d, want %d", seed, op, got, want)
			}
		}
		m.check(t, h, seed, op)
	}
}

// add records a fresh allocation r and the Fields Get gives it.
func (m *heapModel) add(t *testing.T, h *Heap, r Ref, o *modelObj) {
	t.Helper()
	if r != m.issued+1 {
		t.Fatalf("allocation returned ref %d, want %d", r, m.issued+1)
	}
	m.issued = r
	o.live, o.allocBit = true, m.markingActive
	o.fields = h.Get(r).Fields
	m.objs[r] = o
}

// check compares the heap with the model on every issued Ref, and on
// null, a negative Ref and the next two that were never issued.
func (m *heapModel) check(t *testing.T, h *Heap, seed int64, op int) {
	t.Helper()
	if h.Allocated != int64(m.issued) {
		t.Fatalf("seed %d op %d: Allocated = %d, want %d", seed, op, h.Allocated, m.issued)
	}
	if n := len(h.chunks); n > 0 {
		c := h.chunks[n-1]
		for j := h.Allocated - int64(n-1)<<chunkShift; j < chunkSize; j++ {
			if c.state[j] != deadState || c.shape[j] != deadShape || c.words[j] != nil {
				t.Fatalf("seed %d op %d: unallocated slot %d of the last chunk is not dead", seed, op, j)
			}
		}
	}
	for i, w := range h.block {
		if w != 0 {
			t.Fatalf("seed %d op %d: word %d of the rest of the current block is %d, not zero", seed, op, i, w)
		}
	}
	for r := Ref(-1); r <= m.issued+2; r++ {
		got, want := h.Get(r), m.live(r)
		if want == nil {
			if !got.IsNil() || h.Marked(r) || h.AllocDuringMark(r) || h.TraceStateOf(r) != TraceUntraced {
				t.Fatalf("seed %d op %d: ref %d names no object, but Get = %+v", seed, op, r, got)
			}
			continue
		}
		elems, refArray := h.RefElems(r)
		fields, slots := h.RefFields(r)
		switch {
		case got.IsNil():
			t.Fatalf("seed %d op %d: live ref %d reads as no object", seed, op, r)
		case got.IsArray() != want.array || refArray != want.elemRef:
			t.Fatalf("seed %d op %d: ref %d: IsArray %v, RefElems ok %v, want %v %v", seed, op, r,
				got.IsArray(), refArray, want.array, want.elemRef)
		case !slices.Equal(slots, want.refSlots):
			t.Fatalf("seed %d op %d: ref %d: RefFields slots %v, want %v", seed, op, r, slots, want.refSlots)
		case want.elemRef && !slices.Equal(elems, want.words):
			t.Fatalf("seed %d op %d: ref %d: RefElems %v, want %v", seed, op, r, elems, want.words)
		case !want.array && !slices.Equal(fields, want.words):
			t.Fatalf("seed %d op %d: ref %d: RefFields fields %v, want %v", seed, op, r, fields, want.words)
		case want.array && (fields != nil || slots != nil) || !want.elemRef && elems != nil:
			t.Fatalf("seed %d op %d: ref %d: RefFields %v %v and RefElems %v of the wrong kind of object", seed, op, r, fields, slots, elems)
		case !slices.Equal(got.Fields, want.words):
			t.Fatalf("seed %d op %d: ref %d: words %v, want %v", seed, op, r, got.Fields, want.words)
		case cap(got.Fields) != len(got.Fields):
			t.Fatalf("seed %d op %d: ref %d: storage not capped, append would write into a neighbour", seed, op, r)
		case len(got.Fields) > 0 && &got.Fields[0] != &want.fields[0]:
			t.Fatalf("seed %d op %d: ref %d: storage moved", seed, op, r)
		case h.Marked(r) != want.marked || h.AllocDuringMark(r) != want.allocBit || h.TraceStateOf(r) != want.trace:
			t.Fatalf("seed %d op %d: ref %d: marked %v alloc %v trace %v, want %v %v %v", seed, op, r,
				h.Marked(r), h.AllocDuringMark(r), h.TraceStateOf(r), want.marked, want.allocBit, want.trace)
		}
	}
}
