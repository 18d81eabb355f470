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
// Unresolvable callees (absent from the program) are skipped; verified
// programs have none.
func BuildCallGraph(p *Program) *CallGraph {
	syms := p.Symbols()
	g := &CallGraph{Methods: syms.Methods, Callees: make([][]int, len(syms.Methods))}
	// seen[j] == i+1 once method i's edge to j is recorded.
	seen := make([]int, len(syms.Methods))
	for i, m := range syms.Methods {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != OpInvoke {
				continue
			}
			if j := syms.MethodNum(in.Method); j >= 0 && seen[j] != i+1 {
				seen[j] = i + 1
				g.Callees[i] = append(g.Callees[i], j)
			}
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
	// CompOf maps a node to its component index in SCCs.
	CompOf []int
	// Deps[c] lists the component indices c's members call into
	// (excluding c itself), deduplicated; all are < c by construction.
	Deps [][]int
	// Dependents[c] is the reverse of Deps: components that call into c.
	// The parallel scheduler uses it to release waiting components.
	Dependents [][]int
}

// Condense runs Tarjan's SCC algorithm (iteratively — generated programs
// are small but workloads can have deep call chains) and builds the
// component DAG.
func Condense(g *CallGraph) *Condensation {
	n := len(g.Methods)
	c := &Condensation{Graph: g, CompOf: make([]int, n)}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		c.CompOf[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan: each frame tracks the node and the position in
	// its callee list.
	type frame struct {
		node int
		edge int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{node: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.edge < len(g.Callees[v]) {
				w := g.Callees[v][f.edge]
				f.edge++
				switch {
				case index[w] == -1:
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				case onStack[w]:
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// v is finished: pop its frame, fold lowlink into the parent,
			// and emit an SCC if v is a root.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			comp := len(c.SCCs)
			var members []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.CompOf[w] = comp
				members = append(members, w)
				if w == v {
					break
				}
			}
			// Ascending program order within the component, for
			// deterministic fixed-point iteration.
			slices.Sort(members)
			cyclic := len(members) > 1 || slices.Contains(g.Callees[v], v) // self-loop
			c.SCCs = append(c.SCCs, SCC{Members: members, Cyclic: cyclic})
		}
	}

	// Component DAG edges (deduplicated, deterministic order).
	c.Deps = make([][]int, len(c.SCCs))
	c.Dependents = make([][]int, len(c.SCCs))
	for ci := range c.SCCs {
		for _, v := range c.SCCs[ci].Members {
			for _, w := range g.Callees[v] {
				cw := c.CompOf[w]
				if cw == ci || slices.Contains(c.Deps[ci], cw) {
					continue
				}
				c.Deps[ci] = append(c.Deps[ci], cw)
				c.Dependents[cw] = append(c.Dependents[cw], ci)
			}
		}
	}
	return c
}
