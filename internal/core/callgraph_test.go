package core

import (
	"math/rand"
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
)

// graphOf builds a CallGraph directly from an adjacency list — Condense
// only consults len(Methods) and Callees, so structural tests need no
// bytecode at all.
func graphOf(adj [][]int) *CallGraph {
	return &CallGraph{Methods: make([]*bytecode.Method, len(adj)), Callees: adj}
}

func TestCondenseSelfLoop(t *testing.T) {
	c := Condense(graphOf([][]int{{0}}))
	if len(c.SCCs) != 1 || !c.SCCs[0].Cyclic {
		t.Fatalf("self-loop must form one cyclic SCC, got %+v", c.SCCs)
	}
	if c.CompOf[0] != 0 {
		t.Errorf("CompOf = %v", c.CompOf)
	}
}

func TestCondenseSingleNodeNoLoopIsAcyclic(t *testing.T) {
	c := Condense(graphOf([][]int{nil}))
	if len(c.SCCs) != 1 || c.SCCs[0].Cyclic {
		t.Fatalf("lone node must be acyclic, got %+v", c.SCCs)
	}
}

func TestCondenseNestedCyclesAndUnreachable(t *testing.T) {
	// 0 ⇄ 1 (cycle) calling into 2 ⇄ 3 (cycle) calling into 4 (leaf);
	// 5 → 5 is unreachable from the rest; 6 is fully isolated.
	adj := [][]int{
		{1, 2}, {0},
		{3, 4}, {2},
		nil,
		{5},
		nil,
	}
	c := Condense(graphOf(adj))
	if len(c.SCCs) != 5 {
		t.Fatalf("want 5 SCCs, got %d: %+v", len(c.SCCs), c.SCCs)
	}
	find := func(node int) SCC { return c.SCCs[c.CompOf[node]] }
	if got := find(0).Members; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("SCC of 0 = %v", got)
	}
	if got := find(2).Members; !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("SCC of 2 = %v", got)
	}
	for _, n := range []int{0, 2, 5} {
		if !find(n).Cyclic {
			t.Errorf("SCC of %d must be cyclic", n)
		}
	}
	for _, n := range []int{4, 6} {
		if find(n).Cyclic {
			t.Errorf("SCC of %d must be acyclic", n)
		}
	}
	// Bottom-up: the leaf 4's component precedes {2,3}, which precedes
	// {0,1}.
	if !(c.CompOf[4] < c.CompOf[2] && c.CompOf[2] < c.CompOf[0]) {
		t.Errorf("not bottom-up: CompOf = %v", c.CompOf)
	}
}

// TestCondenseBottomUpInvariants is the randomized structural property:
// on arbitrary digraphs the condensation must partition the nodes, every
// call edge must point at the caller's component or an earlier one
// (bottom-up order), and SCC membership must coincide with mutual
// reachability.
func TestCondenseBottomUpInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		adj := make([][]int, n)
		for i := range adj {
			seen := map[int]bool{}
			for e := r.Intn(4); e > 0; e-- {
				w := r.Intn(n)
				if !seen[w] {
					seen[w] = true
					adj[i] = append(adj[i], w)
				}
			}
		}
		c := Condense(graphOf(adj))

		// Partition: every node in exactly the component CompOf says.
		count := 0
		for ci, scc := range c.SCCs {
			for _, v := range scc.Members {
				if c.CompOf[v] != ci {
					t.Fatalf("trial %d: node %d in SCC %d but CompOf=%d", trial, v, ci, c.CompOf[v])
				}
				count++
			}
		}
		if count != n {
			t.Fatalf("trial %d: partition covers %d of %d nodes", trial, count, n)
		}

		// Bottom-up: every edge v → w has CompOf[w] <= CompOf[v], equal only
		// when v and w share a component.
		for v, callees := range adj {
			for _, w := range callees {
				if cv, cw := c.CompOf[v], c.CompOf[w]; cw > cv {
					t.Fatalf("trial %d: edge %d → %d runs from component %d to %d", trial, v, w, cv, cw)
				}
			}
		}

		// SCC ⇔ mutual reachability.
		reach := reachability(adj)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				same := c.CompOf[v] == c.CompOf[w]
				mutual := reach[v][w] && reach[w][v]
				if same != mutual {
					t.Fatalf("trial %d: nodes %d,%d same-SCC=%v mutual-reach=%v\nadj=%v",
						trial, v, w, same, mutual, adj)
				}
			}
		}
	}
}

// reachability computes the reflexive-transitive closure by DFS.
func reachability(adj [][]int) [][]bool {
	n := len(adj)
	out := make([][]bool, n)
	for v := range out {
		out[v] = make([]bool, n)
		stack := []int{v}
		out[v][v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[x] {
				if !out[v][w] {
					out[v][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return out
}

func TestBuildCallGraphDedupAndOrder(t *testing.T) {
	src := `
class T { int v; }
class M {
    static int leaf(T t) { return t.v; }
    static int twice(T t) { return M.leaf(t) + M.leaf(t); }
    static void main() { T t = new T(); print(M.twice(t)); }
}
`
	p, _ := analyzeSrc(t, src, 0, Options{Mode: ModeNone})
	g := BuildCallGraph(p)
	twice := p.Symbols().MethodNum(bytecode.MethodRef{Class: "M", Name: "twice"})
	leaf := p.Symbols().MethodNum(bytecode.MethodRef{Class: "M", Name: "leaf"})
	if got := g.Callees[twice]; !reflect.DeepEqual(got, []int{leaf}) {
		t.Errorf("duplicate invokes must dedup to one edge, got %v", got)
	}
}
