// Package inline implements call-site inlining over bytecode with the
// "inline limit" knob from the paper (§4.4): a callee is expanded at its
// call sites only when its bytecode size does not exceed the limit.
//
// The barrier-elision analyses are intra-procedural and run after inlining
// (paper §2.4): without inlining, every allocation's constructor call
// makes the fresh object escape immediately, so inlining constructors is
// what exposes pre-null initializing stores to the field analysis.
//
// Inlining proceeds bottom-up over the call graph's strongly connected
// components, so a callee's body is fully expanded before its callers
// consider it, and no member of a cycle is ever inlined into another
// (which would not terminate).
package inline

import (
	"slices"
	"sort"

	"satbelim/internal/bytecode"
	"satbelim/internal/obs"
)

// Options configure inlining.
type Options struct {
	// Limit is the maximum bytecode size (in bytes) of a method that may
	// be inlined. Zero disables inlining entirely.
	Limit int
	// CallerCap bounds the size a caller may grow to; call sites whose
	// expansion would exceed it are left as calls. Zero means the
	// default (DefaultCallerCap).
	CallerCap int
}

// DefaultCallerCap bounds caller growth, mirroring the compiled-method
// size caps real JITs apply on top of the per-callee limit.
const DefaultCallerCap = 8000

// Result reports what inlining did, for the compile-time experiments.
type Result struct {
	Program *bytecode.Program
	// Expanded counts inlined call sites.
	Expanded int
	// Remaining counts invoke sites left in the output program (too big,
	// recursive, or caller at cap — plus every site when Limit is 0).
	Remaining int
}

// Apply returns a new program with eligible call sites expanded. The input
// program is not modified.
func Apply(p *bytecode.Program, opts Options) *Result {
	out := p.Clone()
	res := &Result{Program: out}
	if opts.Limit > 0 {
		callerCap := opts.CallerCap
		if callerCap <= 0 {
			callerCap = DefaultCallerCap
		}
		methods := out.Methods()
		index := map[bytecode.MethodRef]int{}
		for i, m := range methods {
			index[m.Ref()] = i
		}
		order := processingOrder(methods, index)
		inl := &inliner{prog: out, limit: opts.Limit, callerCap: callerCap, res: res}
		for _, mi := range order {
			inl.inlineInto(methods[mi])
		}
	}
	for _, m := range out.Methods() {
		for pc := range m.Code {
			if m.Code[pc].Op == bytecode.OpInvoke {
				res.Remaining++
			}
		}
	}
	obs.Count("inline.expanded", int64(res.Expanded))
	obs.Count("inline.remaining", int64(res.Remaining))
	return res
}

// processingOrder returns method indices in bottom-up call-graph order
// (callees before callers), using Tarjan's SCC algorithm. Members of the
// same SCC keep index order; inlineInto itself refuses same-SCC targets via
// the recursion check below (a callee inside a cycle keeps growing only if
// we allowed it — we re-check sizes at expansion time, and a method never
// inlines itself, so cycles are handled by the SCC condensation order plus
// the direct-recursion guard).
func processingOrder(methods []*bytecode.Method, index map[bytecode.MethodRef]int) []int {
	n := len(methods)
	adj := make([][]int, n)
	for i, m := range methods {
		seen := map[int]bool{}
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != bytecode.OpInvoke {
				continue
			}
			if j, ok := index[in.Method]; ok && !seen[j] {
				seen[j] = true
				adj[i] = append(adj[i], j)
			}
		}
		sort.Ints(adj[i])
	}

	// Tarjan's algorithm, iterative state kept in slices.
	const unvisited = -1
	indexNum := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range indexNum {
		indexNum[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	counter := 0
	ncomp := 0
	var order []int // methods appended as their SCC completes = bottom-up

	var strongconnect func(v int)
	strongconnect = func(v int) {
		indexNum[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if indexNum[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && indexNum[w] < low[v] {
				low[v] = indexNum[w]
			}
		}
		if low[v] == indexNum[v] {
			var members []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				members = append(members, w)
				if w == v {
					break
				}
			}
			sort.Ints(members)
			order = append(order, members...)
			ncomp++
		}
	}
	for v := 0; v < n; v++ {
		if indexNum[v] == unvisited {
			strongconnect(v)
		}
	}
	return order
}

type inliner struct {
	prog      *bytecode.Program
	limit     int
	callerCap int
	res       *Result
	recursive map[bytecode.MethodRef]bool
	// splice is expand's buffer for the sequence replacing one invoke,
	// reused across sites.
	splice []bytecode.Instr
}

// inlineInto expands eligible call sites within m, in place. The scan
// resumes at each splice instead of restarting: a site rejected once stays
// rejected, because every check either ignores the caller's code or
// compares its size — which only grows — against a bound, and callee
// bodies are final by the bottom-up order.
func (ix *inliner) inlineInto(m *bytecode.Method) {
	for site := ix.findSite(m, 0); site >= 0; site = ix.findSite(m, site) {
		ix.expand(m, site)
		ix.res.Expanded++
	}
}

// findSite returns the pc of the first expandable call site at or after
// from, or -1.
func (ix *inliner) findSite(m *bytecode.Method, from int) int {
	for pc := from; pc < len(m.Code); pc++ {
		in := &m.Code[pc]
		if in.Op != bytecode.OpInvoke {
			continue
		}
		callee := ix.prog.Method(in.Method)
		if callee == nil {
			continue
		}
		if callee.Ref() == m.Ref() {
			continue // direct recursion
		}
		if callee.Size() > ix.limit {
			continue
		}
		if m.Size()+callee.Size() > ix.callerCap {
			continue
		}
		if ix.isRecursive(callee) {
			// A (self-)recursive callee would splice fresh call sites
			// to itself at every expansion round; leave it out-of-line.
			continue
		}
		if ix.callsBackInto(callee, m) {
			continue // same-SCC cycle
		}
		return pc
	}
	return -1
}

// isRecursive reports (with memoization) whether m can transitively
// invoke itself.
func (ix *inliner) isRecursive(m *bytecode.Method) bool {
	if ix.recursive == nil {
		ix.recursive = map[bytecode.MethodRef]bool{}
	}
	if r, ok := ix.recursive[m.Ref()]; ok {
		return r
	}
	r := ix.callsBackInto(m, m)
	ix.recursive[m.Ref()] = r
	return r
}

// callsBackInto reports whether callee (transitively) invokes target,
// which would make inlining it into target non-terminating. Bottom-up SCC
// order makes this rare; the check makes it impossible.
func (ix *inliner) callsBackInto(callee, target *bytecode.Method) bool {
	seen := map[bytecode.MethodRef]bool{}
	var walk func(m *bytecode.Method) bool
	walk = func(m *bytecode.Method) bool {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != bytecode.OpInvoke {
				continue
			}
			if in.Method == target.Ref() {
				return true
			}
			if seen[in.Method] {
				continue
			}
			seen[in.Method] = true
			if next := ix.prog.Method(in.Method); next != nil && walk(next) {
				return true
			}
		}
		return false
	}
	return walk(callee)
}

// expand splices the callee's body in place of the invoke at site, within
// m's own code slice.
func (ix *inliner) expand(m *bytecode.Method, site int) {
	callee := ix.prog.Method(m.Code[site].Method)
	line := m.Code[site].Line

	// Allocate caller slots for every callee slot.
	base := len(m.SlotTypes)
	m.SlotTypes = append(m.SlotTypes, callee.SlotTypes...)
	m.NumSlots = len(m.SlotTypes)

	// The spliced sequence: stores of the stacked arguments into the
	// callee's parameter slots (top of stack is the last argument), then
	// the remapped body.
	splice := ix.splice[:0]
	nargs := callee.NumArgs()
	for i := nargs - 1; i >= 0; i-- {
		splice = append(splice, bytecode.Instr{Op: bytecode.OpStore, A: int64(base + i), Line: line})
	}
	// Callee pcs become caller pcs by adding bodyAt.
	bodyAt := int64(site + len(splice))
	for pc := range callee.Code {
		in := callee.Code[pc] // copy
		switch {
		case in.Op == bytecode.OpLoad || in.Op == bytecode.OpStore:
			in.A += int64(base)
		case in.IsBranch():
			in.A += bodyAt
		case in.Op == bytecode.OpReturn || in.Op == bytecode.OpReturnValue:
			// Jump past the body; any return value stays on the stack.
			in = bytecode.Instr{Op: bytecode.OpGoto, A: int64(len(callee.Code)) + bodyAt, Line: in.Line}
		}
		splice = append(splice, in)
	}
	ix.splice = splice

	// Caller branch targets beyond the invoke move with the insertion.
	delta := int64(len(splice) - 1)
	for pc := range m.Code {
		if in := &m.Code[pc]; in.IsBranch() && in.A > int64(site) {
			in.A += delta
		}
	}
	m.Code = slices.Replace(m.Code, site, site+1, splice...)
}
