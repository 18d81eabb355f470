package heap

import (
	"math/rand"
	"slices"
	"testing"

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
// of it, and after every operation compares what Get, IsArray, ElemRef,
// RefSlots, the words and the collector flags say about every Ref issued
// (and a few never issued) with what the model says.
func TestHeapMatchesModel(t *testing.T) {
	p := testProgram()
	classes := p.SortedClasses()
	const seeds, opsPerSeed = 5, 2_500
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(NewLayout(p))
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
	for r := Ref(-1); r <= m.issued+2; r++ {
		got, want := h.Get(r), m.live(r)
		if want == nil {
			if !got.IsNil() || h.Marked(r) || h.AllocDuringMark(r) || h.TraceStateOf(r) != TraceUntraced {
				t.Fatalf("seed %d op %d: ref %d names no object, but Get = %+v", seed, op, r, got)
			}
			continue
		}
		switch {
		case got.IsNil():
			t.Fatalf("seed %d op %d: live ref %d reads as no object", seed, op, r)
		case got.IsArray() != want.array || got.ElemRef() != want.elemRef:
			t.Fatalf("seed %d op %d: ref %d: IsArray %v ElemRef %v, want %v %v", seed, op, r,
				got.IsArray(), got.ElemRef(), want.array, want.elemRef)
		case !slices.Equal(got.RefSlots(), want.refSlots):
			t.Fatalf("seed %d op %d: ref %d: RefSlots %v, want %v", seed, op, r, got.RefSlots(), want.refSlots)
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
