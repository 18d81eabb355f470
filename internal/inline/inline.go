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
//
// Apply rewrites the program it is given, in place, and returns it: the
// pipeline discards the code generator's output once it is inlined, so a
// copy would be made only to be thrown away. A caller that still needs the
// code before inlining applies to a Clone.
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

// Apply expands p's eligible call sites in place and returns p as
// res.Program. At limit 0 it changes nothing. A method that expands gets
// new Code and SlotTypes slices, and a new operand pool if it took in a
// callee with another pool; no other method is touched, and no pool is
// written. The Body records and verdict table p held describe the code
// before, so an Apply that expands anything drops them
// (Program.CodeChanged). Like AddClass, Apply must not run concurrently
// with any other use of p.
func Apply(p *bytecode.Program, opts Options) *Result {
	res := &Result{Program: p}
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
		ix := &inliner{syms: p.Symbols(), cond: bytecode.Condense(bytecode.BuildCallGraph(p)),
			limit: opts.Limit, callerCap: callerCap}
		for _, scc := range ix.cond.SCCs {
			for _, mi := range scc.Members {
				res.Expanded += ix.inlineInto(ix.syms.Methods[mi])
			}
		}
		if res.Expanded > 0 {
			p.CodeChanged()
		}
	}
	for _, m := range p.Methods() {
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
	// work holds the code and slot types of the method being rewritten,
	// and splice the sequence replacing one invoke: buffers reused across
	// methods and sites.
	work   bytecode.Method
	splice []bytecode.Instr
}

// inlineInto expands eligible call sites within m and returns how many. m
// is rewritten in the inliner's buffers and, if anything expanded, gets
// copies of them at their exact sizes. The scan resumes at each splice
// instead of restarting: a site rejected once stays rejected, because every
// check either ignores the caller's code or compares its size — which only
// grows — against a bound, and callee bodies are final by the bottom-up
// order.
func (ix *inliner) inlineInto(m *bytecode.Method) (expanded int) {
	w := &ix.work
	w.Code = append(w.Code[:0], m.Code...)
	w.SlotTypes = append(w.SlotTypes[:0], m.SlotTypes...)
	w.Pool = m.Pool
	for pc := 0; pc < len(w.Code); pc++ {
		in := &w.Code[pc]
		if in.Op != bytecode.OpInvoke || in.Ref < 0 || int(in.Ref) >= w.Pool.Len() {
			continue
		}
		ci := ix.syms.MethodNum(w.Operand(pc).Method())
		if ci < 0 || ix.cond.SCCs[ix.cond.CompOf[ci]].Cyclic {
			continue
		}
		callee := ix.syms.Methods[ci]
		if size := callee.Size(); size > ix.limit || w.Size()+size > ix.callerCap {
			continue
		}
		ix.expand(w, pc, callee)
		expanded++
		pc-- // the splice starts here: rescan it
	}
	if expanded > 0 {
		m.Code = append(make([]bytecode.Instr, 0, len(w.Code)), w.Code...)
		m.SlotTypes = append(make([]*bytecode.Type, 0, len(w.SlotTypes)), w.SlotTypes...)
		m.Pool = w.Pool
	}
	return expanded
}

// expand splices callee's body in place of the invoke at site, within the
// buffers of m.
func (ix *inliner) expand(m *bytecode.Method, site int, callee *bytecode.Method) {
	line := m.Code[site].Line

	// Allocate caller slots for every callee slot.
	base := len(m.SlotTypes)
	m.SlotTypes = append(m.SlotTypes, callee.SlotTypes...)

	// Callee operands index the callee's pool. The methods of one code
	// generator share a pool, so theirs are the caller's as they stand;
	// another callee's pool is appended to the caller's, in a new pool (the
	// caller's may be reachable from elsewhere: a Clone's original), and its
	// operands move by the caller's entry count.
	var poolBase int32
	if callee.Pool != m.Pool {
		poolBase = int32(m.Pool.Len())
		m.Pool = m.Pool.Concat(callee.Pool)
	}

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
		case in.HasOperand():
			in.Ref += poolBase
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
