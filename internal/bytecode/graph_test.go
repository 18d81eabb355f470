package bytecode

import "testing"

// loopMethod builds:
//
//	0: const 0        B0
//	1: store 0
//	2: load 0         B1 (loop head)
//	3: const 10
//	4: cmplt
//	5: iffalse -> 10
//	6: load 0         B2 (body)
//	7: const 1
//	8: add
//	9: goto -> 2  ... wait, 9 stores? keep simple: add then goto (value dropped is fine for CFG)
//	10: return        B3
func loopMethod() *Method {
	b := NewBuilder("T", "m", true)
	s := b.DeclareSlot(Int)
	b.Const(0)
	b.Store(s)
	head, end := b.NewLabel(), b.NewLabel()
	b.Bind(head)
	b.Load(s)
	b.Const(10)
	b.Op(OpCmpLT)
	b.IfFalse(end)
	b.Load(s)
	b.Const(1)
	b.Op(OpAdd)
	b.Store(s)
	b.Goto(head)
	b.Bind(end)
	b.Return()
	return b.Build()
}

func TestBuildLoopCFG(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4:\n%s", len(g.Blocks), g)
	}
	// B0 -> B1; B1 -> B3 (branch) and B2 (fallthrough); B2 -> B1; B3 end.
	if len(g.Blocks[0].Succs) != 1 || g.Blocks[0].Succs[0] != 1 {
		t.Errorf("B0 succs = %v", g.Blocks[0].Succs)
	}
	if len(g.Blocks[1].Succs) != 2 {
		t.Errorf("B1 succs = %v", g.Blocks[1].Succs)
	}
	if len(g.Blocks[2].Succs) != 1 || g.Blocks[2].Succs[0] != 1 {
		t.Errorf("B2 succs = %v", g.Blocks[2].Succs)
	}
	if len(g.Blocks[3].Succs) != 0 {
		t.Errorf("B3 succs = %v", g.Blocks[3].Succs)
	}
	if len(g.Blocks[1].Preds) != 2 {
		t.Errorf("B1 preds = %v", g.Blocks[1].Preds)
	}
}

func TestBlockOf(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	if g.BlockOf(0) != 0 || g.BlockOf(2) != 1 || g.BlockOf(6) != 2 {
		t.Errorf("BlockOf: %d %d %d", g.BlockOf(0), g.BlockOf(2), g.BlockOf(6))
	}
}

func TestReversePostorderVisitsAll(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	order := g.ReversePostorder()
	if len(order) != len(g.Blocks) {
		t.Fatalf("order length %d", len(order))
	}
	if order[0] != 0 {
		t.Error("entry block should be first")
	}
	seen := map[int]bool{}
	for _, id := range order {
		seen[id] = true
	}
	for id := range g.Blocks {
		if !seen[id] {
			t.Errorf("block %d missing from RPO", id)
		}
	}
}

func TestUnreachableBlockStillListed(t *testing.T) {
	b := NewBuilder("T", "m", true)
	b.Return()
	// Dead code after return.
	b.Const(1)
	b.Op(OpPop)
	b.Return()
	g, err := BuildGraph(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	reach := g.Reachable()
	if !reach[0] || reach[1] {
		t.Errorf("reachable = %v", reach)
	}
	order := g.ReversePostorder()
	if len(order) != 2 {
		t.Errorf("RPO should include unreachable blocks: %v", order)
	}
}

func TestRPOIndexIsInverseOfOrder(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	order := g.ReversePostorder()
	idx := g.RPOIndex()
	if len(idx) != len(g.Blocks) {
		t.Fatalf("RPOIndex length %d, want %d", len(idx), len(g.Blocks))
	}
	for i, id := range order {
		if idx[id] != i {
			t.Errorf("RPOIndex[%d] = %d, want %d", id, idx[id], i)
		}
	}
}

func TestRPOLoopOrdersHeadBeforeBody(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	idx := g.RPOIndex()
	// B0 (entry) < B1 (head) < B2 (body); the exit B3 comes after the
	// head. This is the property the priority worklist relies on: a
	// block's forward predecessors have smaller indices.
	if !(idx[0] < idx[1] && idx[1] < idx[2]) {
		t.Errorf("loop RPO order wrong: idx=%v", idx)
	}
	if idx[3] < idx[1] {
		t.Errorf("exit scheduled before loop head: idx=%v", idx)
	}
}

// TestRPOIrreducibleLoop builds a two-entry (irreducible) loop: the entry
// branches into both halves of a cycle L <-> R. Every block must appear
// exactly once and the entry must come first.
//
//	0: iftrue -> 3    B0 [0,1): succs B2(pc3), B1(pc1)
//	1: nop            B1 [1,3): L
//	2: goto -> 3      ... -> B2
//	3: nop            B2 [3,5): R
//	4: goto -> 1      ... -> B1
func TestRPOIrreducibleLoop(t *testing.T) {
	m := &Method{Class: "T", Name: "m", Code: []Instr{
		{Op: OpIfTrue, A: 3},
		{Op: OpNop},
		{Op: OpGoto, A: 3},
		{Op: OpNop},
		{Op: OpGoto, A: 1},
	}}
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3:\n%s", len(g.Blocks), g)
	}
	order := g.ReversePostorder()
	if len(order) != 3 || order[0] != 0 {
		t.Fatalf("RPO = %v", order)
	}
	seen := map[int]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("block %d repeated in RPO %v", id, order)
		}
		seen[id] = true
	}
	idx := g.RPOIndex()
	for _, id := range order {
		if idx[order[idx[id]]] != idx[id] {
			t.Errorf("RPOIndex inconsistent at block %d", id)
		}
	}
}

// TestRPOUnreachableAppendedInIDOrder checks that blocks unreachable from
// the entry are scheduled after every reachable block, in id order.
//
//	0: goto -> 5      B0: entry, jumps over the dead middle
//	1: nop            B1: dead
//	2: goto -> 1      ... dead self-loop
//	3: nop            B2: dead (falls into B3? no - pc3 leader via target)
//	4: return         ...
//	5: return         B3: reachable exit
func TestRPOUnreachableAppendedInIDOrder(t *testing.T) {
	m := &Method{Class: "T", Name: "m", Code: []Instr{
		{Op: OpGoto, A: 5},
		{Op: OpNop},
		{Op: OpGoto, A: 1},
		{Op: OpNop},
		{Op: OpReturn},
		{Op: OpReturn},
	}}
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	reach := g.Reachable()
	order := g.ReversePostorder()
	if len(order) != len(g.Blocks) {
		t.Fatalf("RPO misses blocks: %v of %d", order, len(g.Blocks))
	}
	// All reachable blocks first, then unreachable ones in ascending id.
	firstDead := -1
	for i, id := range order {
		if !reach[id] && firstDead == -1 {
			firstDead = i
		}
		if reach[id] && firstDead != -1 {
			t.Fatalf("reachable block %d after unreachable in %v", id, order)
		}
	}
	if firstDead == -1 {
		t.Fatal("expected unreachable blocks in this CFG")
	}
	for i := firstDead; i+1 < len(order); i++ {
		if order[i] > order[i+1] {
			t.Errorf("unreachable tail not in id order: %v", order)
		}
	}
}

func TestRPOCached(t *testing.T) {
	g, err := BuildGraph(loopMethod())
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := g.ReversePostorder(), g.ReversePostorder()
	if &o1[0] != &o2[0] {
		t.Error("ReversePostorder should return the cached order")
	}
	i1, i2 := g.RPOIndex(), g.RPOIndex()
	if &i1[0] != &i2[0] {
		t.Error("RPOIndex should return the cached index")
	}
}

func TestEmptyMethodRejected(t *testing.T) {
	m := &Method{Class: "T", Name: "m"}
	if _, err := BuildGraph(m); err == nil {
		t.Fatal("expected error for empty method")
	}
}

func TestFallOffEndRejected(t *testing.T) {
	b := NewBuilder("T", "m", true)
	b.Const(1)
	b.Op(OpPop)
	if _, err := BuildGraph(b.Build()); err == nil {
		t.Fatal("expected error when control falls off the method end")
	}
}

func TestBranchTargetOutOfRange(t *testing.T) {
	m := &Method{Class: "T", Name: "m", Code: []Instr{
		{Op: OpGoto, A: 5},
	}}
	if _, err := BuildGraph(m); err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

func TestSingleBlock(t *testing.T) {
	b := NewBuilder("T", "m", true)
	b.Const(1)
	b.Op(OpPrint)
	b.Return()
	g, err := BuildGraph(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 1 || g.Blocks[0].Start != 0 || g.Blocks[0].End != 3 {
		t.Errorf("single block shape: %s", g)
	}
}
