package heap

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"satbelim/internal/bytecode"
)

// testProgram declares T (next, v and the static head), which most tests
// allocate, and three more shapes of instance: A, whose reference fields
// are not its first; E, with no fields and so no storage; and W, with more
// fields than a shared block carves.
func testProgram() *bytecode.Program {
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "next", Type: bytecode.ClassType("T")},
		{Name: "v", Type: bytecode.Int},
		{Name: "head", Type: bytecode.ClassType("T"), Static: true},
	}})
	p.AddClass(&bytecode.Class{Name: "A", Fields: []*bytecode.Field{
		{Name: "x", Type: bytecode.Int},
		{Name: "l", Type: bytecode.ClassType("T")},
		{Name: "y", Type: bytecode.Bool},
		{Name: "r", Type: bytecode.ArrayOf(bytecode.Int)},
	}})
	p.AddClass(&bytecode.Class{Name: "E"})
	w := &bytecode.Class{Name: "W"}
	for i := 0; i < carveMax+8; i++ {
		typ := bytecode.Int
		if i%3 == 0 {
			typ = bytecode.ClassType("W")
		}
		w.Fields = append(w.Fields, &bytecode.Field{Name: fmt.Sprintf("f%02d", i), Type: typ})
	}
	p.AddClass(w)
	return p
}

// alloc allocates a T of the test program (next, v).
func alloc(h *Heap) Ref { return h.AllocObjectN("T", 2) }

// TestLayoutIndexes: the heap lays storage out by the symbol table's
// numbers — an object of a class has its NumFields slots, an instance field
// lives at its Slot, and the statics are Symbols.Statics by slot.
func TestLayoutIndexes(t *testing.T) {
	p := testProgram()
	s := p.Symbols()
	h := New(NewLayout(p))
	if next, v := s.Field(bytecode.FieldRef{Class: "T", Name: "next"}), s.Field(bytecode.FieldRef{Class: "T", Name: "v"}); next.Slot != 0 || v.Slot != 1 {
		t.Errorf("next in slot %d, v in slot %d", next.Slot, v.Slot)
	}
	if r := h.AllocObjectN("T", s.Class("T").NumFields); len(h.Get(r).Fields) != 2 {
		t.Errorf("a T has %d fields, want 2", len(h.Get(r).Fields))
	}
	if head := s.Field(bytecode.FieldRef{Class: "T", Name: "head"}); len(h.staticSlots) != 1 || head.Slot != 0 {
		t.Errorf("%d static slots, head in slot %d", len(h.staticSlots), head.Slot)
	}
}

func TestAllocAndFieldAccess(t *testing.T) {
	h := New(NewLayout(testProgram()))
	r := alloc(h)
	if r == Null {
		t.Fatal("allocation returned null")
	}
	o := h.Get(r)
	if o.IsNil() || o.IsArray() || len(o.Fields) != 2 {
		t.Fatalf("Get = %+v", o)
	}
	if o.Fields[0] != NullVal() || o.Fields[1] != IntVal(0) {
		t.Error("fresh fields should read as null and zero")
	}
	o.Fields[0] = RefVal(r)
	if got := h.Get(r).Fields[0]; got != RefVal(r) {
		t.Errorf("field reads back %v", got)
	}
}

func TestArrays(t *testing.T) {
	h := New(NewLayout(testProgram()))
	a := h.AllocArray(true, 3)
	o := h.Get(a)
	if !o.IsArray() || !o.ElemRef() || len(o.Fields) != 3 || len(o.RefSlots()) != 0 {
		t.Fatalf("ref array = %+v", o)
	}
	if v := o.Fields[0]; v != NullVal() {
		t.Errorf("fresh ref-array element should be null ref, got %v", v)
	}
	ints := h.Get(h.AllocArray(false, 2))
	if !ints.IsArray() || ints.ElemRef() || len(ints.Fields) != 2 || ints.Fields[1] != IntVal(0) {
		t.Errorf("int array = %+v", ints)
	}
	if empty := h.Get(h.AllocArray(true, 0)); empty.IsNil() || len(empty.Fields) != 0 {
		t.Errorf("empty array = %+v", empty)
	}
}

func TestStatics(t *testing.T) {
	h := New(NewLayout(testProgram()))
	head := h.Static(0)
	if *head != NullVal() || head != h.Static(0) {
		t.Error("an unset static reads as zero, through one stable address")
	}
	r := alloc(h)
	*head = RefVal(r)
	buf := make([]Ref, 0, 4)
	roots := h.AppendStaticRoots(append(buf, 99))
	if len(roots) != 2 || roots[0] != 99 || roots[1] != r {
		t.Errorf("roots = %v", roots)
	}
	if &roots[0] != &buf[:1][0] {
		t.Error("AppendStaticRoots must fill the caller's buffer when it has room")
	}
}

func TestSweep(t *testing.T) {
	h := New(NewLayout(testProgram()))
	a := alloc(h)
	b := alloc(h)
	h.BeginCycle()
	if !h.Mark(a) || h.Mark(a) {
		t.Error("Mark must report true once, on the white-to-marked transition")
	}
	if !h.Marked(a) || h.Marked(b) {
		t.Error("Marked must report exactly the marked object")
	}
	freed := h.Sweep()
	if freed != 1 {
		t.Errorf("freed = %d, want 1", freed)
	}
	if h.Get(a).IsNil() {
		t.Error("marked object must survive")
	}
	if !h.Get(b).IsNil() {
		t.Error("unmarked object must be freed")
	}
	if h.Marked(a) {
		t.Error("sweep must clear marks")
	}
	if h.Mark(b) || h.Marked(b) || h.MarkDirty(b) {
		t.Error("a swept object cannot be marked or dirtied")
	}
	h.SetTraceState(b, TraceTraced)
	if h.TraceStateOf(b) != TraceUntraced {
		t.Error("a swept object has no trace state")
	}
}

func TestAllocDuringMarkSurvivesSweep(t *testing.T) {
	h := New(NewLayout(testProgram()))
	h.BeginCycle()
	h.MarkingActive = true
	r := alloc(h)
	h.MarkingActive = false
	if !h.AllocDuringMark(r) {
		t.Fatal("alloc-during-mark flag not set")
	}
	if !h.Mark(r) || !h.AllocDuringMark(r) {
		t.Error("marking an object allocated during marking keeps the flag")
	}
	if h.Sweep() != 0 {
		t.Error("object allocated during marking must survive the sweep")
	}
	if h.AllocDuringMark(r) {
		t.Error("sweep must clear the alloc-during-mark flag")
	}
	h.BeginCycle()
	if h.Sweep() != 1 {
		t.Error("the flag is per cycle: the next cycle's sweep frees the object")
	}
}

func TestGetDanglingRefs(t *testing.T) {
	h := New(NewLayout(testProgram()))
	r := alloc(h)
	for _, bad := range []Ref{Null, -1, -1 << 62, r + 1, 1 << 40} {
		if !h.Get(bad).IsNil() {
			t.Errorf("Get(%d) must be no object", bad)
		}
		if h.Mark(bad) || h.Marked(bad) || h.MarkDirty(bad) || h.AllocDuringMark(bad) {
			t.Errorf("ref %d must carry no collector state", bad)
		}
		h.SetTraceState(bad, TraceTraced)
		if h.TraceStateOf(bad) != TraceUntraced {
			t.Errorf("ref %d must read as untraced", bad)
		}
	}
	if h.Get(r).IsNil() {
		t.Error("the live object must still resolve")
	}
}

// TestEpochResetsCollectorState: everything cycle N recorded about an
// object is invisible in cycle N+1, and BeginCycle did not visit the heap
// to make it so (the state words still hold cycle N's stamps).
func TestEpochResetsCollectorState(t *testing.T) {
	h := New(NewLayout(testProgram()))
	r := alloc(h)
	h.BeginCycle()
	h.Mark(r)
	h.MarkDirty(r)
	h.SetTraceState(r, TraceTraced)
	if !h.Marked(r) || h.MarkDirty(r) || h.TraceStateOf(r) != TraceTraced {
		t.Fatal("state set in a cycle must be visible in it")
	}
	word := *h.state(r)
	h.BeginCycle()
	if *h.state(r) != word {
		t.Error("BeginCycle must not rewrite state words")
	}
	if h.Marked(r) || h.TraceStateOf(r) != TraceUntraced {
		t.Error("cycle N's mark and trace state must be invisible in cycle N+1")
	}
	if !h.MarkDirty(r) || !h.Mark(r) {
		t.Error("a stale word must take new flags as a clear one does")
	}
	if h.TraceStateOf(r) != TraceUntraced {
		t.Error("setting a flag on a stale word must not revive its old trace state")
	}
}

func TestEpochWrapAround(t *testing.T) {
	h := New(NewLayout(testProgram()))
	live := alloc(h)
	dead := alloc(h)
	old := alloc(h)
	h.Mark(live)
	h.Mark(old)
	h.Sweep()
	// old carries a mark stamped with the second epoch. After the wrap
	// the epoch counter comes by that value again, and the mark must not
	// come back with it.
	h.Mark(old)
	h.stamp = maxStamp - epochUnit
	h.BeginCycle()
	if h.stamp != maxStamp {
		t.Fatalf("stamp = %#x, want the last epoch %#x", h.stamp, maxStamp)
	}
	if !h.Mark(live) || !h.Marked(live) || h.Marked(old) || h.Mark(dead) || h.Marked(dead) {
		t.Error("marks must work in the last epoch")
	}
	h.BeginCycle() // wraps
	h.BeginCycle()
	if h.stamp != 2*epochUnit {
		t.Fatalf("stamp after wrap = %#x, want the second epoch again", h.stamp)
	}
	if h.Marked(live) || h.Marked(old) {
		t.Error("no mark from before the wrap may be visible after it")
	}
	if !h.Get(dead).IsNil() || h.Mark(dead) || h.Marked(dead) {
		t.Error("the dead stay dead across the wrap")
	}
	if !h.Mark(live) || !h.Marked(live) {
		t.Error("marks must work after the wrap")
	}
	if freed := h.Sweep(); freed != 1 || !h.Get(old).IsNil() || h.Get(live).IsNil() {
		t.Errorf("sweep after the wrap freed %d, want 1 (old)", freed)
	}
}

func TestSweepReleasesDeadChunks(t *testing.T) {
	h := New(NewLayout(testProgram()))
	var refs []Ref
	for i := 0; i < 3*chunkSize+1; i++ {
		r := alloc(h)
		refs = append(refs, r)
	}
	h.BeginCycle()
	h.Mark(refs[0])           // one survivor in chunk 0
	h.Mark(refs[3*chunkSize]) // and the one object of the tail chunk
	if freed := h.Sweep(); freed != 3*chunkSize-1 {
		t.Errorf("freed = %d, want %d", freed, 3*chunkSize-1)
	}
	if h.chunks[0] == deadChunk || h.chunks[3] == deadChunk {
		t.Error("a chunk with a survivor must stay")
	}
	if h.chunks[1] != deadChunk || h.chunks[2] != deadChunk {
		t.Error("a full chunk with no survivor must be released")
	}
	for _, r := range refs[1 : 3*chunkSize] {
		if !h.Get(r).IsNil() || h.Mark(r) {
			t.Fatalf("ref %d into swept storage must be dead", r)
		}
	}
	// The tail chunk is still being allocated into: it stays even when
	// everything in it dies, and the next allocation lands in it.
	h.BeginCycle()
	h.Sweep()
	if h.chunks[0] != deadChunk || h.chunks[3] == deadChunk {
		t.Error("chunk 0 is now all dead and full; the tail chunk is not full")
	}
	r := alloc(h)
	if r != Ref(3*chunkSize+2) || h.Get(r).IsNil() || !h.Get(refs[3*chunkSize]).IsNil() {
		t.Error("allocation must continue in the tail chunk with a fresh ref")
	}
	for j, s := range deadChunk.state {
		if s != deadState || deadChunk.shape[j] != 0 || deadChunk.words[j] != nil {
			t.Fatal("the shared dead chunk was written to")
		}
	}
}

// TestRefsOf: an object's references are the words its class word names —
// the class's reference slots, every element of a reference array — and
// an int that happens to equal a Ref is none of them.
func TestRefsOf(t *testing.T) {
	h := New(NewLayout(testProgram()))
	a := alloc(h)
	b := alloc(h)
	h.Get(a).Fields[0] = RefVal(b)
	h.Get(a).Fields[1] = IntVal(int64(a)) // T.v, an int
	arr := h.AllocArray(true, 2)
	h.Get(arr).Fields[1] = RefVal(a)
	ints := h.AllocArray(false, 2)
	h.Get(ints).Fields[0] = IntVal(int64(b))
	h.Get(ints).RefsOf(func(r Ref) { t.Errorf("an int array has no references, got %d", r) })
	var got []Ref
	h.Get(a).RefsOf(func(r Ref) { got = append(got, r) })
	if len(got) != 1 || got[0] != b {
		t.Errorf("object refs = %v", got)
	}
	got = nil
	h.Get(arr).RefsOf(func(r Ref) { got = append(got, r) })
	if len(got) != 1 || got[0] != a {
		t.Errorf("array refs = %v", got)
	}
}

// TestSweepReleasesStorage: Sweep drops the chunk's pointer to a dead
// object's storage, so the Go collector reclaims it. The storage of an
// array longer than carveMax is an allocation of its own, whose finalizer
// runs once nothing points at it.
func TestSweepReleasesStorage(t *testing.T) {
	h := New(NewLayout(testProgram()))
	released := make(chan struct{})
	func() {
		fs := h.Get(h.AllocArray(true, 4*carveMax)).Fields
		runtime.SetFinalizer(&fs[0], func(*Value) { close(released) })
	}()
	keep := alloc(h)
	h.BeginCycle()
	h.Mark(keep)
	if freed := h.Sweep(); freed != 1 {
		t.Fatalf("freed = %d, want the array", freed)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(h) // the heap outlived the storage
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the storage of a swept array is still reachable from the heap")
		}
	}
}

// allocatedBytes is the Go heap bytes one call of f allocates, averaged
// over 100 calls with the Go collector off.
func allocatedBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

var chunkSink *chunk
var blockSink []Value

// TestObjectAndChunkSizes pins the heap's footprint, as Go allocates it.
// A chunk is 32 storage pointers, 32 state words and 32 shape words: 512
// B, the 512-byte size class, which takes no malloc header, so an object
// costs 16 B of its chunk. A chunk of 32-byte Objects (slice header and
// class pointer) beside the state words was 1 152 B, allocated from the
// 1 280 B size class with Go's 8-byte header: 40 B an object. A storage
// block is pointer-free and exactly 1 KiB, a third of what 24-byte tagged
// slots took.
func TestObjectAndChunkSizes(t *testing.T) {
	if n := unsafe.Sizeof(chunk{}); n != 512 {
		t.Errorf("a chunk is %d bytes, want 512", n)
	}
	if n := allocatedBytes(func() { chunkSink = newChunk() }); n != 512 {
		t.Errorf("a chunk allocates %d bytes, want 512", n)
	}
	if n := allocatedBytes(func() { blockSink = make([]Value, blockValues) }); n != 1024 {
		t.Errorf("a storage block allocates %d bytes, want 1024", n)
	}
}
