package bytecode_test

import (
	"reflect"
	"sync"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/workloads"
)

// refBlock and referenceBuild are the graph as the builder made it before
// it carved a graph from slabs: one append per edge, recursive depth-first
// search. They are the shape the slab-built graph must keep, edge order
// included — the analysis merges predecessors in Preds order.
type refBlock struct {
	start, end   int
	succs, preds []int
}

func referenceBuild(m *bytecode.Method) (blocks []*refBlock, rpo []int) {
	n := len(m.Code)
	leader := make([]bool, n)
	leader[0] = true
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.IsBranch() {
			leader[in.A] = true
		}
		if (in.IsBranch() || in.IsTerminator()) && pc+1 < n {
			leader[pc+1] = true
		}
	}
	blockOf := make([]int, n)
	for pc := range m.Code {
		if leader[pc] {
			blocks = append(blocks, &refBlock{start: pc})
		}
		blockOf[pc] = len(blocks) - 1
		blocks[len(blocks)-1].end = pc + 1
	}
	for id, b := range blocks {
		addSucc := func(pc int) {
			b.succs = append(b.succs, blockOf[pc])
			blocks[blockOf[pc]].preds = append(blocks[blockOf[pc]].preds, id)
		}
		last := &m.Code[b.end-1]
		if last.IsBranch() {
			addSucc(int(last.A))
			if last.Op != bytecode.OpGoto && b.end < n {
				addSucc(b.end)
			}
		} else if !last.IsTerminator() {
			addSucc(b.end)
		}
	}
	seen := make([]bool, len(blocks))
	var post []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range blocks[id].succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, id)
	}
	dfs(0)
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for id := range blocks {
		if !seen[id] {
			rpo = append(rpo, id)
		}
	}
	return blocks, rpo
}

// sameInts compares edge lists, an empty one being nil or not.
func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// TestBuildKeepsTheReferenceShape compares the graph builder with
// referenceBuild on every method of every workload at three inline limits,
// plus methods whose conditional branch targets its own fall-through (a
// doubled edge) and whose tail is unreachable.
func TestBuildKeepsTheReferenceShape(t *testing.T) {
	var methods []*bytecode.Method
	for _, w := range workloads.All() {
		for _, limit := range []int{0, 25, 100} {
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: limit, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			methods = append(methods, b.Program.Methods()...)
		}
	}
	doubled := bytecode.NewBuilder("T", "doubled", true)
	next, dead := doubled.NewLabel(), doubled.NewLabel()
	doubled.Const(1)
	doubled.IfFalse(next)
	doubled.Bind(next)
	doubled.Return()
	doubled.Bind(dead)
	doubled.Goto(dead)
	methods = append(methods, doubled.Build())

	blocks, edges := 0, 0
	for _, m := range methods {
		g, err := bytecode.BuildGraph(m)
		if err != nil {
			t.Fatalf("%s: %v", m.QualifiedName(), err)
		}
		want, wantRPO := referenceBuild(m)
		if len(g.Blocks) != len(want) {
			t.Fatalf("%s: %d blocks, want %d", m.QualifiedName(), len(g.Blocks), len(want))
		}
		for id, b := range g.Blocks {
			w := want[id]
			if b.ID != id || b.Start != w.start || b.End != w.end || !sameInts(b.Succs, w.succs) || !sameInts(b.Preds, w.preds) {
				t.Errorf("%s: block %d = %+v, want [%d,%d) succs %v preds %v", m.QualifiedName(), id, *b, w.start, w.end, w.succs, w.preds)
			}
			for pc := b.Start; pc < b.End; pc++ {
				if g.BlockOf(pc) != id {
					t.Errorf("%s: BlockOf(%d) = %d, want %d", m.QualifiedName(), pc, g.BlockOf(pc), id)
				}
			}
			// A list cut from a shared array must not grow into its neighbour.
			if cap(b.Succs) != len(b.Succs) || cap(b.Preds) != len(b.Preds) {
				t.Errorf("%s: block %d lists have spare capacity", m.QualifiedName(), id)
			}
			edges += len(b.Succs)
		}
		blocks += len(g.Blocks)
		if !reflect.DeepEqual(g.ReversePostorder(), wantRPO) {
			t.Errorf("%s: RPO %v, want %v", m.QualifiedName(), g.ReversePostorder(), wantRPO)
		}
		for i, id := range g.ReversePostorder() {
			if g.RPOIndex()[id] != i {
				t.Errorf("%s: RPOIndex[%d] = %d, want %d", m.QualifiedName(), id, g.RPOIndex()[id], i)
			}
		}
	}
	t.Logf("%d methods, %d blocks, %d edges", len(methods), blocks, edges)
}

// TestBuildAllocatesPerGraphNotPerBlock: a Body takes five allocations
// whatever the method's size — the record with its graph, one array for
// FieldAt, CalleeAt and the pc-to-block map, and the graph's block slab,
// Blocks view and order array — where it took nine.
func TestBuildAllocatesPerGraphNotPerBlock(t *testing.T) {
	w, err := workloads.Get("javac")
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: 100, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range b.Program.Methods() {
		if got := testing.AllocsPerRun(3, func() { bytecode.NewBody(b.Program, m) }); got != 5 {
			t.Errorf("%s (%d instructions): %.0f allocations per body, want 5", m.QualifiedName(), len(m.Code), got)
		}
	}
}

// TestCompileBuildsEachGraphOnce: within one Compile, a method's graph is
// built once, with its Body, when the verifier first asks for it; the
// analysis — summary mode, in every round of a recursive component, and
// judging mode — reads the same record.
func TestCompileBuildsEachGraphOnce(t *testing.T) {
	recursive := `
class T { int v; T f; static T sink; }
class M {
    static int ra(T t, int n) { if (n <= 0) return 0; return M.rb(t, n - 1); }
    static int rb(T t, int n) { T.sink = t; if (n <= 0) return 0; return M.ra(t, n - 1); }
    static void main() { T t = new T(); print(M.ra(t, 3)); }
}
`
	jess, err := workloads.Get("jess")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src string
		interproc bool
		workers   int
	}{
		{"recursive", recursive, true, 1},
		{"jess", jess.Source, true, 4},
		{"jess", jess.Source, false, 4},
	} {
		var mu sync.Mutex
		builds := map[string]int{}
		bytecode.SetGraphHook(func(m *bytecode.Method) {
			mu.Lock()
			builds[m.QualifiedName()]++
			mu.Unlock()
		})
		b, err := pipeline.Compile(tc.name, tc.src, pipeline.Options{
			Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: tc.interproc},
			Workers:  tc.workers, NoCache: true,
		})
		bytecode.SetGraphHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range b.Program.Methods() {
			if got := builds[m.QualifiedName()]; got != 1 {
				t.Errorf("%s (interprocedural %v): %s built %d times, want 1", tc.name, tc.interproc, m.QualifiedName(), got)
			}
		}
		if len(builds) != len(b.Program.Methods()) {
			t.Errorf("%s: graphs built for %d methods of %d", tc.name, len(builds), len(b.Program.Methods()))
		}
	}
}
