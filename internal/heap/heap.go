// Package heap implements the VM's object heap: class instances with
// zero-initialized fields, arrays with zero/null-initialized elements, and
// static fields. The garbage collector (internal/gc) traces this heap;
// write barriers observe field and element overwrites in it.
package heap

import (
	"unsafe"

	"satbelim/internal/bytecode"
)

// Ref is a heap handle. The zero Ref is null.
type Ref int64

// Null is the null reference.
const Null Ref = 0

// Value is one heap slot: an integer or boolean, or a Ref. The word does
// not say which; the slot's object does (Object), and whoever reads or
// writes a slot knows its kind from the field's or the array's type.
type Value int64

// IntVal is the slot word of an integer (or boolean, 0/1).
func IntVal(i int64) Value { return Value(i) }

// RefVal is the slot word of a reference.
func RefVal(r Ref) Value { return Value(r) }

// NullVal is the slot word of the null reference, the zero word.
func NullVal() Value { return 0 }

// Object is one heap object as Get reads it: its storage, a class
// instance's fields by slot or an array's elements, and its class word,
// which says which words are references — the class's RefSlots for an
// instance, every element of a reference array, none of an int array.
// Fields aliases the heap's storage, which stays where it is for the
// object's lifetime, so writes through it are the object's and an Object
// read once stays valid while others are allocated and swept. The zero
// Object is no object (IsNil). Collector state (mark,
// allocated-during-mark, dirty, §4.3 trace state) is not here: it lives in
// the chunk's stamped state words, see Heap.
type Object struct {
	Fields []Value
	class  *bytecode.ClassSym
}

// The class words of arrays are &arrays[0] for ints and &arrays[1] for
// references, indexed by a shape's elemRefBit: heap-owned, so no
// program's class is one of them, with no RefSlots, and at addresses the
// linker fixes, so telling an array by them loads nothing.
var arrays [2]bytecode.ClassSym

// TraceState is the collector's per-array tracing progress, published so
// that barrier-elided rearrangement code can detect overlap with the scan
// (paper §4.3: "bits in the header of an object array to indicate the
// tracing state of the array").
type TraceState int8

const (
	// TraceUntraced: the collector has not started scanning the array.
	TraceUntraced TraceState = iota
	// TraceTracing: the collector is scanning the array right now.
	TraceTracing
	// TraceTraced: the collector finished scanning the array.
	TraceTraced
)

// IsNil reports whether the Object is no object: Get's answer for a null,
// dangling or swept reference.
func (o Object) IsNil() bool { return o.class == nil }

// IsArray reports whether the object is an array.
func (o Object) IsArray() bool { return o.class == &arrays[0] || o.class == &arrays[1] }

// ElemRef reports whether the object is an array of references.
func (o Object) ElemRef() bool { return o.class == &arrays[1] }

// RefSlots lists the slots of an instance's reference fields; an array has
// none (ElemRef says whether every element is one).
func (o Object) RefSlots() []int32 { return o.class.RefSlots }

// Layout is the program's storage layout, which its symbol table numbers:
// an instance's shape is its ClassSym.Num, its field count NumFields, a
// field's storage its FieldSym.Slot, the static roots Symbols.RefStatics.
type Layout = bytecode.Symbols

// NewLayout returns the program's layout, its symbol table.
func NewLayout(p *bytecode.Program) *Layout { return p.Symbols() }

// Heap is the object store.
//
// An object is three words in a fixed-size chunk: its collector state,
// its shape (a class number, or an array's element kind and length) and a
// pointer to the first word of its storage. A Ref is a 1-based slot
// number, chunks are never moved and growth only appends a chunk pointer,
// so Get is two index operations and a shape decode. Refs are never
// reused. Field and element storage is carved from small shared blocks of
// one-word Values and never moves; Sweep clears a dead object's shape and
// storage pointer so the Go collector reclaims a block once nothing carved
// from it is live, and a full chunk with no survivor is replaced by the
// shared deadChunk.
//
// Collector state is one stamped word per slot, beside the objects in the
// chunk: epoch<<5 | flags. A word from an older epoch reads as all-clear,
// so BeginCycle resets every object's mark, allocated-during-mark, dirty
// and trace state by bumping the epoch, with no pass over the heap. A dead
// slot (swept or never allocated) holds deadState, whose epoch is never
// issued and which Mark's single compare reads as "already marked".
//
// Declared statics live in a dense slice in declaration order
// (staticSlots): the slice is sized once at construction and never
// reallocates, so a slot's address is stable for the heap's lifetime and
// Static can hand out direct pointers. A program the VM runs names no
// other static (bytecode.Program.Validate).
type Heap struct {
	syms *bytecode.Symbols
	// classes is syms.ClassSyms: an instance's shape indexes it.
	classes     []bytecode.ClassSym
	chunks      []*chunk
	block       []Value // rest of the block carve hands storage out of
	stamp       uint32  // current epoch, shifted: the all-clear state word
	staticSlots []Value

	// Allocated counts allocations over the heap's lifetime. Refs are not
	// reused, so it is also the highest Ref handed out.
	Allocated int64
	// MarkingActive is set by the collector while a concurrent mark is
	// in progress; SATB alloc-black behaviour keys off it.
	MarkingActive bool
}

const (
	// chunkSize is small because the daemon's typical program allocates
	// about 15 objects: slack has to stay proportional to that.
	chunkShift = 5
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// blockValues is the size of a shared storage block; a request above
	// carveMax gets its own allocation instead of stranding a block's tail.
	blockValues = 128
	carveMax    = blockValues / 4
)

// State-word flags, below the epoch. markBit is the highest so that
// "marked this cycle" is one compare against stamp|markBit.
const (
	traceMask uint32 = 3 // a TraceState
	dirtyBit  uint32 = 1 << 2
	allocBit  uint32 = 1 << 3
	markBit   uint32 = 1 << 4
	epochUnit uint32 = 1 << 5

	deadState = ^uint32(0)
	// maxStamp is the last epoch issued; the one above it is deadState's.
	maxStamp = deadState&^(epochUnit-1) - epochUnit
)

// Shape-word bits. An instance's shape is its class number; an array's is
// arrayBit, elemRefBit if its elements are references, and its length.
const (
	arrayBit     uint32 = 1 << 31
	elemRefShift        = 30
	elemRefBit   uint32 = 1 << elemRefShift
	lenMask             = elemRefBit - 1
)

// A chunk is the records of chunkSize objects in parallel arrays: 512 B,
// a size class of its own, which Go allocates with no header. The storage
// pointers come first, so the Go collector scans only the first half.
type chunk struct {
	words [chunkSize]*Value // first storage word, nil for no storage
	state [chunkSize]uint32
	shape [chunkSize]uint32
}

func newChunk() *chunk {
	c := new(chunk)
	for j := range c.state {
		c.state[j] = deadState
	}
	return c
}

// deadChunk stands in for every released chunk. All its slots are dead, so
// nothing ever writes to it and heaps can share it.
var deadChunk = newChunk()

// New creates an empty heap over the program's layout.
func New(layout *Layout) *Heap {
	return &Heap{
		syms:        layout,
		classes:     layout.ClassSyms,
		stamp:       epochUnit,
		staticSlots: make([]Value, len(layout.Statics)),
	}
}

// Get returns the object for a reference, or the zero Object when the
// reference is null, was never handed out, or names a swept object.
func (h *Heap) Get(r Ref) Object {
	i := uint64(r - 1) // null and negative refs wrap past Allocated
	if i >= uint64(h.Allocated) {
		return Object{}
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	if c.state[j] == deadState {
		return Object{}
	}
	s := c.shape[j]
	cls, n := &arrays[s>>elemRefShift&1], s&lenMask
	if s&arrayBit == 0 {
		cls = &h.classes[s]
		n = uint32(cls.NumFields)
	}
	return Object{unsafe.Slice(c.words[j], n), cls}
}

// state returns the reference's state word, or a dead one for a reference
// that was never handed out.
func (h *Heap) state(r Ref) *uint32 {
	i := uint64(r - 1)
	if i >= uint64(h.Allocated) {
		return &deadChunk.state[0]
	}
	return &h.chunks[i>>chunkShift].state[i&chunkMask]
}

// flags returns a live object's flags for the current epoch.
func (h *Heap) flags(s uint32) uint32 {
	if f := s - h.stamp; f < epochUnit {
		return f
	}
	return 0 // stale or dead
}

// BeginCycle starts a collector cycle: every object reads as unmarked,
// not allocated during marking, clean and untraced.
func (h *Heap) BeginCycle() {
	if h.stamp == maxStamp {
		// Epochs wrapped: the one reset pass, every 2^27 cycles.
		for _, c := range h.chunks {
			if c == deadChunk {
				continue
			}
			for j, s := range c.state {
				if s != deadState {
					c.state[j] = 0
				}
			}
		}
		h.stamp = 0
	}
	h.stamp += epochUnit
}

// Mark marks the object for this cycle and reports whether it was
// unmarked before: false for a marked object and for a null, dangling or
// swept reference.
func (h *Heap) Mark(r Ref) bool {
	// Not through state(): its cost would push the markers' shade over
	// the inlining budget and out of their scan loop.
	i := uint64(r - 1)
	if i >= uint64(h.Allocated) {
		return false
	}
	p := &h.chunks[i>>chunkShift].state[i&chunkMask]
	s := *p
	if s >= h.stamp|markBit { // marked this cycle, or dead
		return false
	}
	if s < h.stamp {
		s = h.stamp
	}
	*p = s | markBit
	return true
}

// Marked reports whether the object was marked this cycle.
func (h *Heap) Marked(r Ref) bool { return h.flags(*h.state(r))&markBit != 0 }

// AllocDuringMark reports whether the object was allocated while
// MarkingActive in this cycle; such objects are implicitly marked in SATB
// collections.
func (h *Heap) AllocDuringMark(r Ref) bool { return h.flags(*h.state(r))&allocBit != 0 }

// MarkDirty records the object as modified this cycle (the incremental
// collector's card) and reports whether it was clean before.
func (h *Heap) MarkDirty(r Ref) bool {
	p := h.state(r)
	if *p == deadState {
		return false
	}
	f := h.flags(*p)
	*p = h.stamp | f | dirtyBit
	return f&dirtyBit == 0
}

// TraceStateOf returns the collector's scan progress on the object in
// this cycle (§4.3's header bits).
func (h *Heap) TraceStateOf(r Ref) TraceState {
	return TraceState(h.flags(*h.state(r)) & traceMask)
}

// SetTraceState publishes the collector's scan progress on the object.
func (h *Heap) SetTraceState(r Ref, ts TraceState) {
	p := h.state(r)
	if *p != deadState {
		*p = h.stamp | h.flags(*p)&^traceMask | uint32(ts)
	}
}

// carve returns the first of n zeroed Values, from the current block when
// they fit, or nil when n is 0.
func (h *Heap) carve(n int) *Value {
	switch {
	case n == 0:
		return nil
	case n > carveMax:
		return &make([]Value, n)[0]
	case n > len(h.block):
		h.block = make([]Value, blockValues)
	}
	p := &h.block[0]
	h.block = h.block[n:]
	return p
}

// add allocates an object of the shape with n words of storage.
func (h *Heap) add(shape uint32, n int) Ref {
	j := h.Allocated & chunkMask
	if j == 0 {
		h.chunks = append(h.chunks, newChunk())
	}
	c := h.chunks[len(h.chunks)-1]
	c.words[j] = h.carve(n)
	c.shape[j] = shape
	c.state[j] = 0
	if h.MarkingActive {
		c.state[j] = h.stamp | allocBit
	}
	h.Allocated++
	return Ref(h.Allocated)
}

// AllocObject allocates an instance of cls with every field zero, which
// reads as int 0 and as Null alike.
func (h *Heap) AllocObject(cls *bytecode.ClassSym) Ref {
	return h.add(uint32(cls.Num), cls.NumFields)
}

// AllocObjectN is AllocObject by the name of a class of the heap's
// program, for callers that hold no ClassSym; nFields is its NumFields.
func (h *Heap) AllocObjectN(class string, nFields int) Ref {
	return h.AllocObject(h.syms.Class(class))
}

// AllocArray allocates an array of n zero elements, ints or nulls; n is
// neither negative nor above 1<<24 (the VM raises those faults before it
// asks), and a length beyond what a shape word holds panics.
func (h *Heap) AllocArray(elemRef bool, n int64) Ref {
	if uint64(n) > uint64(lenMask) {
		panic("heap: array length out of range")
	}
	s := arrayBit | uint32(n)
	if elemRef {
		s |= elemRefBit
	}
	return h.add(s, int(n))
}

// Static returns a stable pointer to the storage of the static in slot
// (FieldSym.Slot), the one way any engine reads or writes a static.
func (h *Heap) Static(slot int) *Value { return &h.staticSlots[slot] }

// AppendStaticRoots appends the non-null reference statics to dst, in
// declaration order, and returns it. The order must be
// deterministic: the concurrent marker paces its work in fixed-size steps,
// so a run-to-run shuffle of the root queue would shift mark completion
// across scheduler quanta and make barrier logging counts unreproducible.
func (h *Heap) AppendStaticRoots(dst []Ref) []Ref {
	for _, slot := range h.syms.RefStatics {
		if r := Ref(h.staticSlots[slot]); r != Null {
			dst = append(dst, r)
		}
	}
	return dst
}

// RefsOf calls f with every outgoing reference of the object. The markers
// walk the same words in place instead; this is for the cold walks (the
// oracle's escape closure, the test-only snapshot).
func (o Object) RefsOf(f func(Ref)) {
	if o.ElemRef() {
		for _, w := range o.Fields {
			if w != 0 {
				f(Ref(w))
			}
		}
	}
	for _, slot := range o.RefSlots() {
		if w := o.Fields[slot]; w != 0 {
			f(Ref(w))
		}
	}
}

// Sweep frees the objects neither marked nor allocated during marking in
// this cycle, ends the cycle's epoch so that the survivors read as
// unmarked again, and returns the number freed.
func (h *Heap) Sweep() int {
	freed := 0
	for ci, c := range h.chunks {
		if c == deadChunk {
			continue
		}
		live := 0
		for j, s := range c.state {
			switch {
			case s == deadState:
			case h.flags(s)&(markBit|allocBit) != 0:
				live++
			default:
				c.words[j], c.shape[j] = nil, 0
				c.state[j] = deadState
				freed++
			}
		}
		if live == 0 && int64(ci+1)<<chunkShift <= h.Allocated {
			h.chunks[ci] = deadChunk
		}
	}
	h.BeginCycle()
	return freed
}
