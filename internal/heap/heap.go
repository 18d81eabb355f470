// Package heap implements the VM's object heap: class instances with
// zero-initialized fields, arrays with zero/null-initialized elements, and
// static fields. The garbage collector (internal/gc) traces this heap;
// write barriers observe field and element overwrites in it.
package heap

import (
	"sync"
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
// which tells an instance from an array; which words are references only
// RefElems and RefFields say. Fields aliases the heap's storage, which
// stays where it is for the object's lifetime, so writes through it are
// the object's and an Object read once stays valid while others are
// allocated and swept. The zero Object is no object (IsNil). Collector
// state (mark, allocated-during-mark, dirty, §4.3 trace state) is not
// here: it lives in the chunk's stamped state words, see Heap.
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
// so an access is two index operations and a shape decode. Field and
// element storage is carved from small shared blocks of one-word Values
// and never moves while its object lives.
//
// Refs are never reused; memory is. Sweep clears a dead object's shape and
// storage pointer, swaps a full chunk with no survivor for the shared
// deadChunk, and hands that chunk and every block none of whose objects
// survived to the heap's arena, from which the next allocations take
// memory before they ask Go for more. A dead object's oversize storage is
// left to the Go collector. Release ends the heap: its chunks, its blocks
// and its live objects' oversize storage go to the arena and the arena to
// a pool, where the next New finds it. An arena keeps at most arenaMax
// bytes, so a large run pins no more than that past its end.
//
// Collector state is one stamped word per slot, beside the objects in the
// chunk: epoch<<5 | flags. A word from an older epoch reads as all-clear,
// so BeginCycle resets every object's mark, allocated-during-mark, dirty
// and trace state by bumping the epoch, with no pass over the heap. A dead
// slot (swept or never allocated) holds deadState, whose epoch is never
// issued and which Mark's single compare reads as "already marked",
// deadShape, which FieldSlot and ElemSlot read as no slot, and no storage.
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
	blocks      []block // every block carved from and not yet recycled, in carving order
	block       []Value // rest of the last block, which carve hands storage out of
	arena       *arena  // spare memory; nil once released
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

	// deadShape is a dead slot's: an empty int array, so a test of the
	// shape alone finds no field and no element in it.
	deadShape = arrayBit
)

// A chunk is the records of chunkSize objects in parallel arrays: 512 B,
// a size class of its own, which Go allocates with no header. The storage
// pointers come first, so the Go collector scans only the first half.
type chunk struct {
	words [chunkSize]*Value // first storage word, nil for no storage
	state [chunkSize]uint32
	shape [chunkSize]uint32
}

// reset makes every slot of the chunk dead.
func (c *chunk) reset() *chunk {
	clear(c.words[:])
	for j := range c.state {
		c.state[j], c.shape[j] = deadState, deadShape
	}
	return c
}

// deadChunk stands in for every released chunk. All its slots are dead, so
// nothing ever writes to it and heaps can share it.
var deadChunk = new(chunk).reset()

// block is a shared storage block and the first Ref carved from it. carve
// is sequential, so every object from first up to the next block's first
// either has its storage in this block or has none in any block.
type block struct {
	mem   *[blockValues]Value
	first Ref
}

// arena is memory no heap uses: whole chunks, storage blocks, oversize
// storage by length, and the emptied lists of a released heap's chunks and
// blocks. It is reset as it is handed out again, so what a heap takes from
// it reads as fresh memory does.
type arena struct {
	chunks []*chunk
	blocks []*[blockValues]Value
	big    map[int][]*Value // first words of oversize storage, by length

	chunkList []*chunk
	blockList []block
}

// arenaMax bounds the bytes an arena keeps past its heap's Release: about
// ten times what the largest workload's heap holds (jess, 400 KB a run), so
// every workload's run finds its memory again, while a larger run leaves
// the rest to the Go collector and pins nothing beyond this.
const arenaMax = 4 << 20

// arenas holds the arenas of released heaps for the next New. An idle
// arena the pool drops at the Go collector's second cycle.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// chunk returns a chunk of dead slots, a spare one if there is one.
func (a *arena) chunk() *chunk {
	if n := len(a.chunks); n > 0 {
		c := a.chunks[n-1]
		a.chunks = a.chunks[:n-1]
		return c.reset()
	}
	return new(chunk).reset()
}

// block returns a zeroed storage block, a spare one if there is one.
func (a *arena) block() *[blockValues]Value {
	if n := len(a.blocks); n > 0 {
		b := a.blocks[n-1]
		a.blocks = a.blocks[:n-1]
		clear(b[:])
		return b
	}
	return new([blockValues]Value)
}

// storage returns the first of n zeroed Values for oversize storage, spare
// storage of that length if there is some.
func (a *arena) storage(n int) *Value {
	if free := a.big[n]; len(free) > 0 {
		p := free[len(free)-1]
		a.big[n] = free[:len(free)-1]
		clear(unsafe.Slice(p, n))
		return p
	}
	return &make([]Value, n)[0]
}

// trim drops what the arena holds beyond arenaMax bytes: first oversize
// storage, then blocks, then chunks, and last the lists, which cost the
// most allocations per byte to grow again.
func (a *arena) trim() {
	room := arenaMax
	a.chunkList = keepList(a.chunkList, &room)
	a.blockList = keepList(a.blockList, &room)
	a.chunks = keepSpares(a.chunks, int(unsafe.Sizeof(chunk{})), &room)
	a.blocks = keepSpares(a.blocks, blockValues*valueBytes, &room)
	for n, free := range a.big {
		if free = keepSpares(free, n*valueBytes, &room); len(free) > 0 {
			a.big[n] = free
		} else {
			delete(a.big, n)
		}
	}
}

const valueBytes = int(unsafe.Sizeof(Value(0)))

// keepList returns the empty list s if its storage fits in room, which it
// takes, and nil if not.
func keepList[T any](s []T, room *int) []T {
	var e T
	if n := cap(s) * int(unsafe.Sizeof(e)); n <= *room {
		*room -= n
		return s
	}
	return nil
}

// keepSpares returns as many of the spares s, size bytes each, as fit in
// room, which they take, in storage no larger than four times theirs.
func keepSpares[T any](s []T, size int, room *int) []T {
	n := min(len(s), *room/size)
	*room -= n * size
	clear(s[n:])
	if s = s[:n]; cap(s) > 4*n {
		s = append([]T(nil), s...)
	}
	return s
}

// New creates an empty heap over the program's layout, with the memory a
// released heap left, if any.
func New(layout *Layout) *Heap {
	a := arenas.Get().(*arena)
	h := &Heap{
		syms:        layout,
		classes:     layout.ClassSyms,
		chunks:      a.chunkList,
		blocks:      a.blockList,
		arena:       a,
		stamp:       epochUnit,
		staticSlots: make([]Value, len(layout.Statics)),
	}
	a.chunkList, a.blockList = nil, nil
	return h
}

// Release ends the heap's life and hands its memory on: its chunks, its
// blocks and the oversize storage of its live objects go to its arena, and
// the arena, trimmed to arenaMax bytes, to the pool New draws from. The
// statics stay as they were; every Ref reads as no object, and allocating
// panics. Releasing again does nothing.
func (h *Heap) Release() {
	a := h.arena
	if a == nil {
		return
	}
	for _, c := range h.chunks {
		if c == deadChunk {
			continue
		}
		for j, s := range c.state {
			if s == deadState {
				continue
			}
			if n := h.storageLen(c.shape[j]); n > carveMax {
				if a.big == nil {
					a.big = map[int][]*Value{}
				}
				a.big[n] = append(a.big[n], c.words[j])
			}
		}
		a.chunks = append(a.chunks, c)
	}
	for _, b := range h.blocks {
		a.blocks = append(a.blocks, b.mem)
	}
	clear(h.chunks)
	clear(h.blocks)
	a.chunkList, a.blockList = h.chunks[:0], h.blocks[:0]
	a.trim()
	h.chunks, h.blocks, h.block, h.arena = nil, nil, nil, nil
	arenas.Put(a)
}

// storageLen is the number of storage words of an object of the shape.
func (h *Heap) storageLen(s uint32) int {
	if s&arrayBit != 0 {
		return int(s & lenMask)
	}
	return h.classes[s].NumFields
}

// Get returns the object for a reference, or the zero Object when the
// reference is null, was never handed out, or names a swept object. The
// engines and the markers read through the accessors below instead, which
// build no Object.
func (h *Heap) Get(r Ref) Object {
	i := uint64(r - 1) // null and negative refs wrap past every chunk
	if i>>chunkShift >= uint64(len(h.chunks)) {
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

// FieldSlot returns field slot idx of the instance r names, or nil when r
// names no object (a dead slot's shape is an array's), names an array, or
// names an instance with no slot idx (one of another class than the
// field's: the structural check does not type the operand stack).
func (h *Heap) FieldSlot(r Ref, idx int32) *Value {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return nil
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	s := c.shape[j]
	if s&arrayBit != 0 || uint32(idx) >= uint32(h.classes[s].NumFields) {
		return nil
	}
	return (*Value)(unsafe.Add(unsafe.Pointer(c.words[j]), uintptr(idx)*unsafe.Sizeof(Value(0))))
}

// ElemSlot returns element k of the array r names, or nil when r names no
// array or k is out of bounds (a dead slot's shape is an empty array's).
func (h *Heap) ElemSlot(r Ref, k int64) *Value {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return nil
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	if s := c.shape[j]; s&arrayBit == 0 || uint64(k) >= uint64(s&lenMask) {
		return nil
	}
	return (*Value)(unsafe.Add(unsafe.Pointer(c.words[j]), uintptr(k)*unsafe.Sizeof(Value(0))))
}

// ArrayLen returns the length of the array r names, or -1 when r names no
// array.
func (h *Heap) ArrayLen(r Ref) int64 {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return -1
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	if s := c.shape[j]; s&arrayBit != 0 && c.state[j] != deadState {
		return int64(s & lenMask)
	}
	return -1
}

// RefElems returns the elements of the array of references r names, and
// whether r names one: an instance, an int array and a Ref that names no
// object have none. RefElems and RefFields are what a marker scans, the
// one decoder of which words are references; each inlines.
func (h *Heap) RefElems(r Ref) (elems []Value, ok bool) {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return nil, false
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	s := c.shape[j]
	if s&elemRefBit == 0 { // an instance's shape is its class, a small number
		return nil, false
	}
	return unsafe.Slice(c.words[j], s&lenMask), true
}

// RefFields returns the fields of the instance r names and the slots of
// the references among them; an array, and a Ref that names no object,
// have neither.
func (h *Heap) RefFields(r Ref) (fields []Value, slots []int32) {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return nil, nil
	}
	c, j := h.chunks[i>>chunkShift], i&chunkMask
	s := c.shape[j]
	if s&arrayBit != 0 {
		return nil, nil
	}
	cls := &h.classes[s]
	return unsafe.Slice(c.words[j], cls.NumFields), cls.RefSlots
}

// state returns the reference's state word, or a dead one for a reference
// that was never handed out.
func (h *Heap) state(r Ref) *uint32 {
	i := uint64(r - 1)
	if i>>chunkShift >= uint64(len(h.chunks)) {
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
	if i>>chunkShift >= uint64(len(h.chunks)) {
		return false
	}
	p := &h.chunks[i>>chunkShift].state[i&chunkMask]
	if *p >= h.stamp|markBit { // marked this cycle, or dead
		return false
	}
	*p = max(*p, h.stamp) | markBit // a stale word's flags clear
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

// carve returns the first of n zeroed Values for the object about to be
// allocated, from the current block when they fit, or nil when n is 0.
func (h *Heap) carve(n int) *Value {
	switch {
	case n == 0:
		return nil
	case n > carveMax:
		return h.arena.storage(n)
	case n > len(h.block):
		b := h.arena.block()
		h.blocks = append(h.blocks, block{mem: b, first: Ref(h.Allocated + 1)})
		h.block = b[:]
	}
	p := &h.block[0]
	h.block = h.block[n:]
	return p
}

// add allocates an object of the shape with n words of storage.
func (h *Heap) add(shape uint32, n int) Ref {
	j := h.Allocated & chunkMask
	if j == 0 {
		h.chunks = append(h.chunks, h.arena.chunk())
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

// RefsOf calls f with every non-null reference held by the object r
// names, as RefElems and RefFields find them. The markers walk those in
// place instead; this is for the cold walks (the oracle's escape closure,
// the snapshot check).
func (h *Heap) RefsOf(r Ref, f func(Ref)) {
	if elems, ok := h.RefElems(r); ok {
		for _, w := range elems {
			if w != 0 {
				f(Ref(w))
			}
		}
		return
	}
	fields, slots := h.RefFields(r)
	for _, slot := range slots {
		if w := fields[slot]; w != 0 {
			f(Ref(w))
		}
	}
}

// Sweep frees the objects neither marked nor allocated during marking in
// this cycle, ends the cycle's epoch so that the survivors read as
// unmarked again, and returns the number freed. A full chunk with no
// survivor goes to the arena, and so does every block but the current one
// whose objects all lie in such chunks.
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
				c.words[j], c.shape[j] = nil, deadShape
				c.state[j] = deadState
				freed++
			}
		}
		if live == 0 && int64(ci+1)<<chunkShift <= h.Allocated {
			h.chunks[ci] = deadChunk
			h.arena.chunks = append(h.arena.chunks, c)
		}
	}
	// Per chunk rather than per object: a survivor keeps every block its
	// chunk overlaps, and the sweep costs nothing per live object.
	kept := h.blocks[:0]
	for i, b := range h.blocks {
		live := i == len(h.blocks)-1
		if !live {
			first, last := (b.first-1)>>chunkShift, (h.blocks[i+1].first-2)>>chunkShift
			for ci := first; ci <= last && !live; ci++ {
				live = h.chunks[ci] != deadChunk
			}
		}
		if live {
			kept = append(kept, b)
		} else {
			h.arena.blocks = append(h.arena.blocks, b.mem)
		}
	}
	clear(h.blocks[len(kept):])
	h.blocks = kept
	h.BeginCycle()
	return freed
}
