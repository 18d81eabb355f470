package bytecode

import "slices"

// The call graph and its condensation schedule the two bottom-up passes
// over a program: the inliner expands callees before their callers and
// never expands a member of a cycle, and the interprocedural summaries —
// a method's facts depend only on its callees' — are computed one strongly
// connected component at a time in reverse topological order, acyclic
// components in a single pass, cyclic ones (recursion) to a fixed point.
// Both are functions of the code, which the inliner rewrites, so neither
// is kept on the program: whoever needs one builds it from the code it is
// looking at.

// CallGraph is the static call graph over a program's methods, with nodes
// numbered like the methods (Symbols.Methods) and edges pointing caller →
// callee. OpSpawn edges are excluded: a spawned receiver always escapes, so
// spawn sites never consult the target's summary.
type CallGraph struct {
	// Methods is p.Methods(): node i is Methods[i].
	Methods []*Method
	// Callees[i] lists the nodes method i invokes, deduplicated, in
	// first-occurrence order of the invoke instructions (deterministic).
	Callees [][]int
}

// BuildCallGraph scans every method's code for OpInvoke edges.
// Unresolvable callees (absent from the program, or an operand index out of
// its pool) are skipped; verified programs have none. A counting pass
// bounds the edges, so every list is carved from one array.
func BuildCallGraph(p *Program) *CallGraph {
	syms := p.Symbols()
	n, invokes := len(syms.Methods), 0
	for _, m := range syms.Methods {
		for pc := range m.Code {
			if m.Code[pc].Op == OpInvoke {
				invokes++
			}
		}
	}
	g := &CallGraph{Methods: syms.Methods, Callees: make([][]int, n)}
	// seen[j] == i+1 once method i's edge to j is recorded; the lists fill
	// edges from the front.
	buf := make([]int, n+invokes)
	seen, edges := buf[:n], buf[n:n]
	var res resolution
	for i, m := range syms.Methods {
		if i == 0 || res.pool != m.Pool {
			res = syms.resolve(m.Pool)
		}
		first := len(edges)
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != OpInvoke || in.Ref < 0 || int(in.Ref) >= len(res.method) {
				continue
			}
			if j := res.method[in.Ref]; j >= 0 && seen[j] != i+1 {
				seen[j] = i + 1
				edges = append(edges, int(j))
			}
		}
		if len(edges) > first {
			g.Callees[i] = edges[first:len(edges):len(edges)]
		}
	}
	return g
}

// SCC is one strongly connected component of the callgraph.
type SCC struct {
	// Members are node indices in ascending order (program order).
	Members []int
	// Cyclic reports whether the component contains a cycle: more than
	// one member, or a single member that calls itself. Acyclic
	// components need exactly one summary pass.
	Cyclic bool
}

// Condensation is the callgraph condensed to its SCCs, in bottom-up
// (reverse topological) order: every component appears after all the
// components it calls into, so processing them in slice order always
// sees final callee summaries. The order is deterministic — Tarjan's
// emission order for a fixed adjacency structure, which BuildCallGraph
// derives from program order.
type Condensation struct {
	Graph *CallGraph
	SCCs  []SCC
	// CompOf maps a node to its component index in SCCs. For every edge
	// v → w, CompOf[w] <= CompOf[v]: no callee's component comes after its
	// caller's.
	CompOf []int
}

// Condense runs Tarjan's SCC algorithm (iteratively — generated programs
// are small but workloads can have deep call chains) in a fixed number of
// allocations whatever the graph: the search's per-node state and path
// share one array, and the members of every component are carved from
// another.
func Condense(g *CallGraph) *Condensation {
	n := len(g.Methods)
	// CompOf, then per node its search index, its lowlink and how many of
	// its callees the search has taken, then the search path. A node is on
	// Tarjan's stack exactly when it has an index and no component yet.
	state := make([]int, 5*n)
	c := &Condensation{Graph: g, CompOf: state[:n:n], SCCs: make([]SCC, 0, n)}
	index, low, edge, path := state[n:2*n], state[2*n:3*n], state[3*n:4*n], state[4*n:4*n]
	for i := range n {
		index[i] = -1
		c.CompOf[i] = -1
	}
	// members holds the components emitted so far from the front and
	// Tarjan's stack from the back, its top first: a node is in at most one
	// of the two, so they never meet, and a component is the top of the
	// stack, contiguous.
	members := make([]int, n)
	emitted, top := 0, n
	next := 0
	visit := func(v int) {
		index[v], low[v], edge[v] = next, next, 0
		next++
		top--
		members[top] = v
		path = append(path, v)
	}
	for root := range n {
		if index[root] != -1 {
			continue
		}
		visit(root)
		for len(path) > 0 {
			v := path[len(path)-1]
			if edge[v] < len(g.Callees[v]) {
				w := g.Callees[v][edge[v]]
				edge[v]++
				switch {
				case index[w] == -1:
					visit(w)
				case c.CompOf[w] == -1: // on the stack
					low[v] = min(low[v], index[w])
				}
				continue
			}
			// v is finished: pop it off the path, fold its lowlink into the
			// parent's, and emit a component if v is a root.
			path = path[:len(path)-1]
			if len(path) > 0 {
				p := path[len(path)-1]
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			comp := len(c.SCCs)
			size := 0
			for members[top+size] != v {
				size++
			}
			size++
			scc := members[emitted : emitted+size : emitted+size]
			copy(scc, members[top:top+size])
			top += size
			emitted += size
			for _, w := range scc {
				c.CompOf[w] = comp
			}
			// Ascending program order within the component, for
			// deterministic fixed-point iteration.
			slices.Sort(scc)
			cyclic := size > 1 || slices.Contains(g.Callees[v], v) // self-loop
			c.SCCs = append(c.SCCs, SCC{Members: scc, Cyclic: cyclic})
		}
	}
	return c
}
