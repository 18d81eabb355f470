package bytecode_test

import (
	"math/rand"
	"slices"
	"testing"

	"satbelim/internal/bytecode"
)

// TestCondenseMatchesReference checks Condense on seeded random graphs —
// sparse and dense, with self-loops, unreachable parts and nodes of no
// edges — against what reachability alone says: two nodes share a
// component exactly when each reaches the other; members ascend; a
// component is cyclic exactly when it has two members or a self-loop; and
// every edge v → w runs bottom-up, CompOf[w] <= CompOf[v], strictly unless
// v and w share a component.
func TestCondenseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 500; round++ {
		n := 1 + r.Intn(24)
		density := r.Float64() * 0.25
		g := &bytecode.CallGraph{Methods: make([]*bytecode.Method, n), Callees: make([][]int, n)}
		for v := range n {
			for _, w := range r.Perm(n) {
				if r.Float64() < density {
					g.Callees[v] = append(g.Callees[v], w)
				}
			}
		}
		// reach[v][w]: a path of one or more edges leads from v to w.
		reach := make([][]bool, n)
		for v := range n {
			reach[v] = make([]bool, n)
			for _, w := range g.Callees[v] {
				reach[v][w] = true
			}
		}
		for k := range n {
			for v := range n {
				for w := range n {
					reach[v][w] = reach[v][w] || reach[v][k] && reach[k][w]
				}
			}
		}

		c := bytecode.Condense(g)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("round %d, graph %v: "+format, append([]any{round, g.Callees}, args...)...)
		}
		seen := 0
		for ci, scc := range c.SCCs {
			if len(scc.Members) == 0 || !slices.IsSorted(scc.Members) {
				fail("component %d has members %v", ci, scc.Members)
			}
			seen += len(scc.Members)
			v := scc.Members[0]
			if cyclic := len(scc.Members) > 1 || reach[v][v]; scc.Cyclic != cyclic {
				fail("component %d %v: Cyclic %v, want %v", ci, scc.Members, scc.Cyclic, cyclic)
			}
		}
		if seen != n {
			fail("the components hold %d nodes of %d", seen, n)
		}
		for v := range n {
			for w := range n {
				same := v == w || reach[v][w] && reach[w][v]
				if (c.CompOf[v] == c.CompOf[w]) != same {
					fail("nodes %d and %d: same component %v, mutually reachable %v", v, w, c.CompOf[v] == c.CompOf[w], same)
				}
			}
			if !slices.Contains(c.SCCs[c.CompOf[v]].Members, v) {
				fail("node %d is not a member of its component %d", v, c.CompOf[v])
			}
			for _, w := range g.Callees[v] {
				if cv, cw := c.CompOf[v], c.CompOf[w]; cw > cv {
					fail("edge %d → %d runs from component %d to component %d", v, w, cv, cw)
				}
			}
		}
	}
}
