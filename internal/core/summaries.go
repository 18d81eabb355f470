package core

import (
	"sort"
	"sync"

	"satbelim/internal/bytecode"
)

// Interprocedural escape summaries — the future-work direction the paper
// names in §2.4: "this conservative treatment of arguments of non-inlined
// methods (and our current lack of interprocedural techniques) is
// detrimental to the precision of the analysis."
//
// A MethodSummary records what a call can do to the caller's facts:
//
//   - per argument, whether the call may *compromise* it — make it (or
//     anything the caller can reach from it) visible to other threads or
//     callers: stored into a static, an escaped object, another argument,
//     or the return value, or published after being read out of the
//     argument's fields;
//   - per argument, which reference fields the callee provably leaves
//     null (ArgPreNullFields) — writes to the remaining fields survive as
//     a targeted σ invalidation instead of compromising the argument, so
//     constructors stop killing caller facts about their receiver;
//   - per argument, whether integer fields/elements may be written
//     (ArgIntMutated), which taints the caller's integer facts only;
//   - whether the return value is a fresh, never-escaped allocation with
//     all reference fields null (ReturnsFresh), letting the caller treat
//     the call site like an allocation site (an A/B pair with
//     pre-null-eligible stores).
//
// Summaries are computed by running the same abstract interpretation in a
// "summary mode" where arguments start thread-local and returning a value
// escapes it. The unknown caller-provided contents of an argument's
// fields are abstracted by a per-argument contents reference
// (refArgContent): reading an untracked argument field yields the
// contents reference, so publishing or mutating anything reached through
// the argument compromises it — without that linkage a callee could
// publish arg.f and the caller would keep elisions on objects it can no
// longer prove thread-local.
//
// Scheduling is bottom-up over the callgraph's SCC condensation (see
// callgraph.go): acyclic components converge in one pass because their
// callees are final; cyclic components (recursion) iterate to a fixed
// point from the optimistic start under the monotone-compromise
// guarantee — facts only worsen, so the iteration computes the least
// fixed point, which is what lets read-only recursion stay
// uncompromised. Independent components fan out across workers; results
// are bit-identical for any worker count because each component depends
// only on finalized callee summaries.

// MethodSummary is the interprocedural fact set for one method. All
// fields move monotonically toward the worst case during the fixed
// point: bools in ArgCompromised/ArgIntMutated are only set, ReturnsFresh
// is only cleared, ArgPreNullFields sets only shrink.
type MethodSummary struct {
	// ArgCompromised[i] is false only when the callee provably does not
	// publish argument i (receiver = 0) or anything reachable from it.
	ArgCompromised []bool
	// ArgIntMutated[i] records that the callee may write integer or
	// boolean fields (or int-array elements) of argument i. A caller
	// keeps such an argument thread-local but must forget its integer
	// facts (stale indices could otherwise feed the array analysis).
	ArgIntMutated []bool
	// ArgPreNullFields[i] is the set of reference fields of argument i
	// (qualified "Class.field" names; "$elems" for reference arrays) the
	// callee provably leaves null. The caller invalidates its σ facts
	// for the complement — fields the callee may have written — and
	// keeps everything else. nil for non-reference arguments.
	ArgPreNullFields []map[string]bool
	// ReturnsFresh reports that the returned reference is a fresh
	// allocation of this call: never escaped, not reachable from any
	// argument, every reference field still null. Integer fields may
	// have been initialized, so the caller taints them.
	ReturnsFresh bool
}

// optimisticSummary is the least element of the summary lattice: nothing
// compromised, every reference field pre-null, the return fresh.
func optimisticSummary(p *bytecode.Program, m *bytecode.Method) *MethodSummary {
	s := &MethodSummary{
		ArgCompromised:   make([]bool, m.NumArgs()),
		ArgIntMutated:    make([]bool, m.NumArgs()),
		ArgPreNullFields: make([]map[string]bool, m.NumArgs()),
		ReturnsFresh:     m.Return.IsRef(),
	}
	for i := 0; i < m.NumArgs(); i++ {
		s.ArgPreNullFields[i] = refFieldSet(p, m.ArgType(i))
	}
	return s
}

// worstSummary compromises everything.
func worstSummary(m *bytecode.Method) *MethodSummary {
	s := &MethodSummary{
		ArgCompromised:   make([]bool, m.NumArgs()),
		ArgIntMutated:    make([]bool, m.NumArgs()),
		ArgPreNullFields: make([]map[string]bool, m.NumArgs()),
	}
	s.degradeToWorst()
	return s
}

// degradeToWorst moves the summary to the top of the lattice in place —
// in place so that concurrently scheduled components never observe a
// replaced map entry, only monotonically worsened fields of the same
// struct (the Summaries map itself stays read-only during the fan-out).
func (s *MethodSummary) degradeToWorst() {
	for i := range s.ArgCompromised {
		s.ArgCompromised[i] = true
		s.ArgIntMutated[i] = true
		s.ArgPreNullFields[i] = nil
	}
	s.ReturnsFresh = false
}

// worsen merges ns into s (monotone join toward the worst case),
// reporting whether s changed — the convergence test of the per-SCC
// fixed point.
func (s *MethodSummary) worsen(ns *MethodSummary) bool {
	changed := false
	for i := range s.ArgCompromised {
		if ns.ArgCompromised[i] && !s.ArgCompromised[i] {
			s.ArgCompromised[i] = true
			changed = true
		}
		if ns.ArgIntMutated[i] && !s.ArgIntMutated[i] {
			s.ArgIntMutated[i] = true
			changed = true
		}
		if cur := s.ArgPreNullFields[i]; cur != nil {
			keep := ns.ArgPreNullFields[i]
			var stale []string
			for f := range cur {
				if keep == nil || !keep[f] {
					stale = append(stale, f)
				}
			}
			if len(stale) > 0 {
				changed = true
				if len(stale) == len(cur) {
					s.ArgPreNullFields[i] = nil
				} else {
					for _, f := range stale {
						delete(cur, f)
					}
				}
			}
		}
	}
	if s.ReturnsFresh && !ns.ReturnsFresh {
		s.ReturnsFresh = false
		changed = true
	}
	return changed
}

// PreNull reports whether field f of argument i is in the summary's
// pre-null set.
func (s *MethodSummary) PreNull(i int, f string) bool {
	return i < len(s.ArgPreNullFields) && s.ArgPreNullFields[i] != nil && s.ArgPreNullFields[i][f]
}

// refFieldSet enumerates the reference fields a value of type t exposes
// to the field analysis, as qualified σ field names: the declared
// reference fields for a class, the $elems pseudo-field for a reference
// array, nothing otherwise.
func refFieldSet(p *bytecode.Program, t *bytecode.Type) map[string]bool {
	switch {
	case t == nil:
		return nil
	case t.IsRefArray():
		return map[string]bool{elemsField: true}
	case t.Kind == bytecode.KindClass:
		cls := p.Classes[t.Class]
		if cls == nil {
			return map[string]bool{}
		}
		out := map[string]bool{}
		for _, f := range cls.Fields {
			if !f.Static && f.Type.IsRef() {
				out[bytecode.FieldRef{Class: cls.Name, Name: f.Name}.String()] = true
			}
		}
		return out
	default:
		return nil
	}
}

// dirtyRefFields returns the reference fields of argument i the summary
// does NOT prove pre-null — the fields a caller must invalidate — in
// sorted order (callers iterate it while mutating σ, and deterministic
// iteration keeps the analysis bit-identical across runs).
func dirtyRefFields(p *bytecode.Program, callee *bytecode.Method, sum *MethodSummary, i int) []string {
	all := refFieldSet(p, callee.ArgType(i))
	if len(all) == 0 {
		return nil
	}
	var out []string
	for f := range all {
		if !sum.PreNull(i, f) {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Summaries maps methods to their interprocedural facts.
type Summaries map[bytecode.MethodRef]*MethodSummary

// maxSummaryRounds is the default per-SCC fixed-point round budget
// (Options.MaxSummaryRoundsPerSCC overrides it). Summary facts move
// monotonically, so a cyclic component of k methods converges within a
// small multiple of its fact count; the cap is a safety valve, and
// exceeding it degrades that component — and only that component — to
// the worst case. Degradation is structural (a property of the program
// and options alone), so degraded results stay deterministic and
// cacheable.
const maxSummaryRounds = 40

// ComputeSummaries derives escape summaries for every method,
// sequentially. opts is the analysis configuration the summaries will be
// used with (ablations apply to the summary computation too).
func ComputeSummaries(p *bytecode.Program, opts Options) (Summaries, error) {
	return ComputeSummariesParallel(p, opts, 1)
}

// ComputeSummariesParallel derives escape summaries for every method,
// scheduling callgraph SCCs bottom-up in reverse topological order and
// fanning independent components across workers (<= 1 means sequential).
// Results are bit-identical for any worker count.
func ComputeSummariesParallel(p *bytecode.Program, opts Options, workers int) (Summaries, error) {
	cond := Condense(BuildCallGraph(p))
	sums := make(Summaries, len(cond.Graph.Methods))
	// All entries exist before any component runs: the map is read-only
	// during the fan-out, and summaries only worsen in place.
	for _, m := range cond.Graph.Methods {
		sums[m.Ref()] = optimisticSummary(p, m)
	}
	if workers <= 1 || len(cond.SCCs) <= 1 {
		for ci := range cond.SCCs {
			if err := processSCC(p, opts, cond, ci, sums); err != nil {
				return nil, err
			}
		}
		return sums, nil
	}

	// Parallel phase: a component becomes ready when every component it
	// calls into is finalized. The mutex orders each component's summary
	// writes before any dependent's reads.
	var (
		mu        sync.Mutex
		cv        = sync.NewCond(&mu)
		ready     []int
		pending   = make([]int, len(cond.SCCs))
		remaining = len(cond.SCCs)
		firstErr  error
	)
	for ci := range cond.SCCs {
		pending[ci] = len(cond.Deps[ci])
		if pending[ci] == 0 {
			ready = append(ready, ci)
		}
	}
	if workers > len(cond.SCCs) {
		workers = len(cond.SCCs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && remaining > 0 && firstErr == nil {
					cv.Wait()
				}
				if remaining == 0 || firstErr != nil {
					mu.Unlock()
					return
				}
				ci := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				mu.Unlock()

				err := processSCC(p, opts, cond, ci, sums)

				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				for _, d := range cond.Dependents[ci] {
					pending[d]--
					if pending[d] == 0 {
						ready = append(ready, d)
					}
				}
				cv.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sums, nil
}

// processSCC finalizes the summaries of one component. Acyclic
// components need exactly one pass (their callees are already final);
// cyclic ones iterate members in program order until nothing worsens.
func processSCC(p *bytecode.Program, opts Options, cond *Condensation, ci int, sums Summaries) error {
	scc := &cond.SCCs[ci]
	if !scc.Cyclic {
		m := cond.Graph.Methods[scc.Members[0]]
		ns, err := summarizeMethod(p, m, opts, sums)
		if err != nil {
			return err
		}
		sums[m.Ref()].worsen(ns)
		return nil
	}
	rounds := opts.MaxSummaryRoundsPerSCC
	if rounds <= 0 {
		rounds = maxSummaryRounds
	}
	for round := 0; round < rounds; round++ {
		changed := false
		for _, v := range scc.Members {
			m := cond.Graph.Methods[v]
			ns, err := summarizeMethod(p, m, opts, sums)
			if err != nil {
				return err
			}
			if sums[m.Ref()].worsen(ns) {
				changed = true
			}
		}
		if !changed {
			return nil
		}
		if opts.UnsoundTrustAllSummaries {
			// DELIBERATELY UNSOUND (harness self-test): skip the
			// compromise re-run, leaving members summarized earlier in
			// the round trusting their cycle-mates' stale optimistic
			// facts.
			return nil
		}
	}
	// Round budget exceeded: degrade this component — and only this
	// component — to the sound worst case.
	for _, v := range scc.Members {
		sums[cond.Graph.Methods[v].Ref()].degradeToWorst()
	}
	return nil
}

// summarizeMethod runs the analysis in summary mode and reads off each
// argument's fate and the return value's freshness.
func summarizeMethod(p *bytecode.Program, m *bytecode.Method, opts Options, sums Summaries) (*MethodSummary, error) {
	g, err := buildGraph(m)
	if err != nil {
		// Structurally odd methods (none are produced by our codegen)
		// keep the worst case.
		return worstSummary(m), nil //nolint:nilerr // conservative fallback
	}
	a := newAnalyzer(p, m, g, opts, true)
	a.summaries = sums
	if a.fixpoint() != DegradeNone {
		return worstSummary(m), nil
	}
	out := &MethodSummary{
		ArgCompromised:   make([]bool, m.NumArgs()),
		ArgIntMutated:    make([]bool, m.NumArgs()),
		ArgPreNullFields: make([]map[string]bool, m.NumArgs()),
		ReturnsFresh:     m.Return.IsRef() && !a.retNotFresh,
	}
	for i := 0; i < m.NumArgs(); i++ {
		r, ok := a.refs.argRef[i]
		if !ok {
			continue // non-reference arguments are never compromised
		}
		comp := a.everNL.Has(r) || a.summaryReach.Has(r) || a.storedInOtherArg(i, r)
		if cr, ok := a.refs.argContent[i]; ok {
			// Anything reached through the argument that was published,
			// returned, stored into another argument, or mutated takes
			// the whole argument with it: the caller has no finer name
			// for the affected objects.
			comp = comp || a.everNL.Has(cr) || a.summaryReach.Has(cr) ||
				a.storedInOtherArg(i, cr) || a.contentMutated.Has(cr)
		}
		out.ArgCompromised[i] = comp
		out.ArgIntMutated[i] = a.intMutatedArgs.Has(r)
		pre := refFieldSet(p, m.ArgType(i))
		for f := range a.dirtyArgFields[r] {
			delete(pre, f)
		}
		out.ArgPreNullFields[i] = pre
	}
	return out, nil
}
