package bytecode

import "fmt"

// A method's basic-block control-flow graph. The verifier and the
// barrier-elision analyses both iterate over these blocks in the standard
// dataflow style (paper §2: "this pass analyzes basic blocks with modified
// start states, propagating changes to successor blocks, until a fixed point
// is reached"). The graph is part of a method's Body (body.go), which is
// the only thing that builds one.
//
// A Graph is immutable once built — nothing is computed lazily — so any
// number of goroutines may read one graph; callers must not modify the
// slices it hands out.

// Block is a maximal straight-line instruction sequence.
type Block struct {
	ID    int
	Start int // first pc (inclusive)
	End   int // last pc + 1 (exclusive)
	Succs []int
	Preds []int
	// succs is Succs' storage: a block has at most two successors.
	succs [2]int
}

// Graph is the control-flow graph of one method.
type Graph struct {
	Method *Method
	Blocks []*Block
	// blockOf maps each pc to its containing block id.
	blockOf []int32
	// rpo is ReversePostorder, rpoIndex its inverse; rpo[:reached] are the
	// blocks reachable from the entry.
	rpo      []int
	rpoIndex []int
	reached  int
}

// graphHook, when a test sets it, observes every graph build.
var graphHook func(*Method)

// build constructs the CFG for a method into g, with blockOf (one zeroed
// int32 per pc) as its pc-to-block map, in three allocations whatever its
// size: the blocks sit by value in one slab behind the Blocks view,
// successor lists inside their blocks, and the reverse postorder, its
// inverse and the predecessor lists share one array (a block has at most
// two successors, so there are at most twice as many edges as blocks). It
// rejects an empty body, a branch out of range and control falling off the
// end.
func (g *Graph) build(m *Method, blockOf []int32) error {
	if graphHook != nil {
		graphHook(m)
	}
	n := len(m.Code)
	if n == 0 {
		return &BodyError{Method: m.QualifiedName(), PC: -1, Msg: "empty method body"}
	}

	// blockOf first marks the leaders with a 1, then becomes the running
	// count of leaders seen, less one.
	blockOf[0] = 1
	for pc := 0; pc < n; pc++ {
		in := &m.Code[pc]
		if in.IsBranch() {
			t := int(in.A)
			if t < 0 || t >= n {
				return &BodyError{Method: m.QualifiedName(), PC: pc, Msg: fmt.Sprintf("branch target %d out of range", in.A)}
			}
			blockOf[t] = 1
			if pc+1 < n {
				blockOf[pc+1] = 1
			}
		} else if in.IsTerminator() && pc+1 < n {
			blockOf[pc+1] = 1
		}
	}
	nb := 0
	for pc, leader := range blockOf {
		nb += int(leader)
		blockOf[pc] = int32(nb - 1)
	}

	slab := make([]Block, nb)
	order := make([]int, 4*nb)
	*g = Graph{Method: m, Blocks: make([]*Block, nb), blockOf: blockOf,
		rpo: order[:nb:nb], rpoIndex: order[nb : 2*nb : 2*nb]}
	for pc := n - 1; pc >= 0; pc-- {
		b := &slab[blockOf[pc]]
		if b.End == 0 {
			b.End = pc + 1
		}
		b.Start = pc
	}

	// Successors: the branch target, then the fall-through. npreds counts
	// each block's incoming edges (in rpoIndex, which order overwrites).
	npreds, edges := g.rpoIndex, 0
	for id := range slab {
		b := &slab[id]
		b.ID, g.Blocks[id] = id, b
		k := 0
		last := &m.Code[b.End-1]
		if last.IsBranch() {
			b.succs[0], k = int(blockOf[last.A]), 1
		}
		if !last.IsTerminator() {
			// A conditional branch falls through when it is not taken.
			if b.End >= n {
				return &BodyError{Method: m.QualifiedName(), PC: -1, Msg: "control falls off the end of the method"}
			}
			b.succs[k] = int(blockOf[b.End])
			k++
		}
		b.Succs = b.succs[:k:k]
		for _, s := range b.Succs {
			npreds[s]++
		}
		edges += k
	}
	// Predecessors arrive in the order the analysis's merge order depends
	// on: blocks ascending, each block's successors in Succs order.
	preds := order[2*nb : 2*nb+edges]
	for id := range slab {
		slab[id].Preds, preds = preds[:0:npreds[id]], preds[npreds[id]:]
	}
	for id := range slab {
		for _, s := range slab[id].Succs {
			slab[s].Preds = append(slab[s].Preds, id)
		}
	}
	g.order()
	return nil
}

// order fills rpo and rpoIndex: the postorder of a depth-first search from
// the entry that takes successors in Succs order, reversed, then the blocks
// it did not reach in id order.
func (g *Graph) order() {
	nb := len(g.Blocks)
	// next[id] is the successor of id the search tries next, -1 while id is
	// unseen. The search stack grows up from rpo[0] and finished blocks fill
	// rpo down from the end; a block is in at most one of the two, so they
	// never meet, and the finished part ends up in reverse postorder.
	rpo, next := g.rpo, g.rpoIndex
	for id := range next {
		next[id] = -1
	}
	rpo[0], next[0] = 0, 0
	sp, fin := 1, nb
	for sp > 0 {
		id := rpo[sp-1]
		if succs := g.Blocks[id].Succs; next[id] < len(succs) {
			s := succs[next[id]]
			next[id]++
			if next[s] < 0 {
				next[s] = 0
				rpo[sp] = s
				sp++
			}
			continue
		}
		sp--
		fin--
		rpo[fin] = id
	}
	g.reached = copy(rpo, rpo[fin:])
	rest := rpo[g.reached:g.reached]
	for id := range next {
		if next[id] < 0 {
			rest = append(rest, id)
		}
	}
	for i, id := range rpo {
		g.rpoIndex[id] = i
	}
}

// BlockOf returns the id of the block containing pc.
func (g *Graph) BlockOf(pc int) int { return int(g.blockOf[pc]) }

// ReversePostorder returns block ids in reverse postorder from the entry,
// the classic iteration order for forward dataflow problems. Unreachable
// blocks are appended at the end in id order so that analyses still visit
// them (conservatively). Callers must not modify the returned slice.
func (g *Graph) ReversePostorder() []int { return g.rpo }

// RPOIndex returns the position of each block in ReversePostorder:
// RPOIndex()[id] is block id's priority for worklist scheduling (lower
// runs earlier, so predecessors tend to stabilize before successors).
// Callers must not modify the returned slice.
func (g *Graph) RPOIndex() []int { return g.rpoIndex }

// Reachable reports which blocks are reachable from the entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	for _, id := range g.rpo[:g.reached] {
		seen[id] = true
	}
	return seen
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	s := ""
	for _, b := range g.Blocks {
		s += fmt.Sprintf("B%d [%d,%d) -> %v\n", b.ID, b.Start, b.End, b.Succs)
	}
	return s
}
