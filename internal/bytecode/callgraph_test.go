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
// component is cyclic exactly when it has two members or a self-loop; it
// comes after every component it calls into; Deps lists exactly the other
// components its members call, once each; and Dependents mirrors Deps.
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
			var deps []int
			for _, v := range scc.Members {
				for _, w := range g.Callees[v] {
					if cw := c.CompOf[w]; cw != ci && !slices.Contains(deps, cw) {
						deps = append(deps, cw)
					}
				}
			}
			slices.Sort(deps)
			got := slices.Clone(c.Deps[ci])
			slices.Sort(got)
			if !slices.Equal(got, deps) {
				fail("component %d: Deps %v, want %v", ci, c.Deps[ci], deps)
			}
			for _, d := range c.Deps[ci] {
				if d >= ci {
					fail("component %d depends on component %d, which comes later", ci, d)
				}
				if !slices.Contains(c.Dependents[d], ci) {
					fail("component %d depends on %d, whose Dependents %v omit it", ci, d, c.Dependents[d])
				}
			}
			for _, d := range c.Dependents[ci] {
				if !slices.Contains(c.Deps[d], ci) {
					fail("component %d lists dependent %d, whose Deps %v omit it", ci, d, c.Deps[d])
				}
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
		}
	}
}
