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
		// The graph of the code before any expansion decides both the order
		// and, once and for all, who may be expanded: expansion only ever
		// adds edges that shortcut existing paths and never removes an edge
		// inside a cycle (a cycle's members are not expanded), so a callee is
		// on a cycle afterwards exactly when it is now.
		ix := &inliner{syms: out.Symbols(), cond: bytecode.Condense(bytecode.BuildCallGraph(out)),
			limit: opts.Limit, callerCap: callerCap}
		for _, scc := range ix.cond.SCCs {
			for _, mi := range scc.Members {
				res.Expanded += ix.inlineInto(ix.syms.Methods[mi])
			}
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

type inliner struct {
	syms *bytecode.Symbols
	// cond is the condensation of the call graph before any expansion:
	// its order is the processing order, and a callee whose component is
	// Cyclic — it can reach itself, alone or through others — is never
	// expanded anywhere, which would not terminate.
	cond      *bytecode.Condensation
	limit     int
	callerCap int
	// splice is expand's buffer for the sequence replacing one invoke,
	// reused across sites.
	splice []bytecode.Instr
}

// inlineInto expands eligible call sites within m, in place, and returns
// how many. The scan resumes at each splice instead of restarting: a site
// rejected once stays rejected, because every check either ignores the
// caller's code or compares its size — which only grows — against a bound,
// and callee bodies are final by the bottom-up order.
func (ix *inliner) inlineInto(m *bytecode.Method) (expanded int) {
	for pc := 0; pc < len(m.Code); pc++ {
		in := &m.Code[pc]
		if in.Op != bytecode.OpInvoke {
			continue
		}
		ci := ix.syms.MethodNum(in.Method)
		if ci < 0 || ix.cond.SCCs[ix.cond.CompOf[ci]].Cyclic {
			continue
		}
		callee := ix.syms.Methods[ci]
		if size := callee.Size(); size > ix.limit || m.Size()+size > ix.callerCap {
			continue
		}
		ix.expand(m, pc, callee)
		expanded++
		pc-- // the splice starts here: rescan it
	}
	return expanded
}

// expand splices callee's body in place of the invoke at site, within m's
// own code slice.
func (ix *inliner) expand(m *bytecode.Method, site int, callee *bytecode.Method) {
	line := m.Code[site].Line

	// Allocate caller slots for every callee slot.
	base := len(m.SlotTypes)
	m.SlotTypes = append(m.SlotTypes, callee.SlotTypes...)

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
