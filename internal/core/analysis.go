package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/cfg"
	"satbelim/internal/intval"
)

// Mode selects which analyses run (the B/F/A configurations of §4.4).
type Mode int

const (
	// ModeNone performs no analysis (baseline B).
	ModeNone Mode = iota
	// ModeField runs the field analysis only (F).
	ModeField
	// ModeFieldArray runs the field and array analyses (A).
	ModeFieldArray
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "B"
	case ModeField:
		return "F"
	default:
		return "A"
	}
}

// ParseMode parses an analysis-mode name ("B", "F", or "A", case-
// insensitive). All CLIs share it so the flag vocabulary cannot drift.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "B", "b":
		return ModeNone, nil
	case "F", "f":
		return ModeField, nil
	case "A", "a", "":
		return ModeFieldArray, nil
	}
	return ModeNone, fmt.Errorf("unknown analysis mode %q (want B, F, or A)", s)
}

// Options configure an analysis run.
type Options struct {
	Mode Mode
	// NullOrSame additionally marks stores proven to overwrite null or
	// rewrite the value already present (§4.3 extension).
	NullOrSame bool
	// Rearrange additionally marks array-element swap pairs for the
	// §4.3 optimistic retrace protocol. Opt-in: it assumes rearranged
	// arrays are not written by other threads without synchronization
	// (the paper's stated precondition).
	Rearrange bool

	// Ablations (see DESIGN.md §5):
	// SingleRefPerSite collapses R_id/A and R_id/B into one summary
	// node, forcing weak updates everywhere.
	SingleRefPerSite bool
	// FlowInsensitiveEscape judges thread-locality by "ever escapes"
	// instead of "escaped yet at this point".
	FlowInsensitiveEscape bool
	// NoStrideInference disables variable-unknown invention in merges,
	// collapsing differing integers to ⊤.
	NoStrideInference bool

	// UnsoundSkipBDemotion is a DELIBERATELY UNSOUND fault-injection
	// knob for the metamorphic harness's self-test (satbtest must catch
	// it): allocation sites skip the R_id/A → R_id/B demotion, so
	// objects from earlier executions of a site keep the unique A name
	// and inherit the fresh allocation's "all fields null, thread-local"
	// facts. Never enable it outside harness validation — unlike the
	// ablations above it breaks the analysis's soundness argument.
	UnsoundSkipBDemotion bool
	// UnsoundTrustAllSummaries is a second DELIBERATELY UNSOUND
	// fault-injection knob for the harness self-test: cyclic callgraph
	// components stop after their first summary pass instead of
	// iterating the compromise re-run to a fixed point, so a method
	// summarized before its cycle-mate keeps trusting the mate's stale
	// optimistic facts (e.g. mutual recursion where the later-summarized
	// arm publishes an argument). Never enable it outside harness
	// validation.
	UnsoundTrustAllSummaries bool

	// Interprocedural enables escape summaries (see summaries.go): a
	// call escapes only the arguments its callee may publish or reach,
	// invalidates just the callee-written fields of the rest, and treats
	// calls with provably fresh returns like allocation sites (§2.4's
	// named future work).
	Interprocedural bool
	// Summaries supplies precomputed summaries; AnalyzeProgram fills it
	// when Interprocedural is set and it is nil.
	Summaries Summaries
	// MaxSummaryRoundsPerSCC bounds the summary fixed point within one
	// cyclic callgraph component (0 = default). Exceeding it degrades
	// that component's summaries — and only that component's — to the
	// sound worst case; the bound is structural, so degradation is
	// deterministic and cacheable.
	MaxSummaryRoundsPerSCC int

	// Analysis budgets (sound degradation). A method exceeding any budget
	// bails out to the always-sound result — every barrier kept, no
	// instruction annotated — with the reason recorded in its
	// MethodReport.Degraded.
	//
	// MaxBlockVisits bounds the fixed point per method (0 = default).
	MaxBlockVisits int
	// Deadline bounds per-method analysis wall-clock time (0 = none).
	// Unlike the structural budgets it is a real-time bound, so whether a
	// borderline method degrades can vary run to run; use MaxBlockVisits
	// or MaxStateSize where reproducibility matters.
	Deadline time.Duration
	// MaxStateSize bounds the abstract-state footprint (σ + Len + NR
	// entries) of any block's out state (0 = none).
	MaxStateSize int
}

// DegradeReason labels why a method's analysis bailed out to the
// conservative all-barriers result.
type DegradeReason string

const (
	// DegradeNone: the method was analyzed normally.
	DegradeNone DegradeReason = ""
	// DegradeVisitBudget: the fixed point exceeded MaxBlockVisits.
	DegradeVisitBudget DegradeReason = "visit-budget"
	// DegradeDeadline: the per-method wall-clock Deadline expired.
	DegradeDeadline DegradeReason = "deadline"
	// DegradeStateSize: an abstract state outgrew MaxStateSize.
	DegradeStateSize DegradeReason = "state-size"
	// DegradePanic: the analysis panicked; the recovered value and stack
	// are in MethodReport.DegradeDetail.
	DegradePanic DegradeReason = "panic"
	// DegradeCancelled: the caller's context was cancelled mid-analysis
	// (observed at block-visit boundaries). Like DegradeDeadline it is a
	// real-time condition, never reproducible from the inputs alone.
	DegradeCancelled DegradeReason = "cancelled"
)

// TimeDriven reports whether a degradation reason depends on wall-clock
// conditions (deadline, cancellation) rather than on the analyzed input.
// Callers that memoize analysis results must not share time-driven
// degradations across requests: a build degraded by one caller's deadline
// is not the right answer for another caller with time to spare.
func (r DegradeReason) TimeDriven() bool {
	return r == DegradeDeadline || r == DegradeCancelled
}

// MethodReport summarizes one method's analysis.
type MethodReport struct {
	Method *bytecode.Method
	// Sites and eliminations are static counts of reference-store
	// barrier sites in the method body.
	FieldSites    int
	ArraySites    int
	FieldElided   int
	ArrayElided   int
	NullOrSame    int
	Rearranged    int
	BlockVisits   int
	Converged     bool
	AbstractRefs  int
	BytecodeBytes int
	// SummaryCalls counts call sites judged with an interprocedural
	// summary in hand; FreshReturns counts the subset whose return value
	// was modeled as a fresh allocation (ReturnsFresh). Both are zero
	// unless Options.Interprocedural was set.
	SummaryCalls int
	FreshReturns int
	// Degraded records why the analysis bailed out to the conservative
	// all-barriers result (DegradeNone when it completed).
	Degraded DegradeReason
	// DegradeDetail carries diagnostic detail — for DegradePanic, the
	// recovered value and captured stack.
	DegradeDetail string
}

// analyzer is the per-method analysis engine.
type analyzer struct {
	prog  *bytecode.Program
	m     *bytecode.Method
	g     *cfg.Graph
	opts  Options
	refs  *refTable
	namer intval.Namer

	// slots is the index space of this analysis's states; fieldAt caches
	// the interned field operand of each field instruction.
	slots   *slotTable
	fieldAt []fieldID

	// entry holds each block's entry state (nil until first reached).
	// Every entry owns its buffers: the fixed point simulates blocks in
	// scratch, merges joins into spare and swaps spare with the entry it
	// replaces, so a visit allocates only when a block is first reached or
	// a buffer must grow. targets and args are simulate's successor list
	// and invoke-argument buffers, likewise reused.
	entry   []*state
	scratch *state
	spare   *state
	targets []int
	args    []Value

	// siteLenConst names the unknown allocation length of each newarray
	// site (lazily minted, stable across the fixed point).
	siteLenConst map[int]intval.ConstU

	// rt is the block-local rearrangement detector, active only during
	// the judgment pass when Options.Rearrange is set.
	rt *rearrangeTracker

	// summaries, when non-nil, refines invoke escape effects.
	summaries Summaries
	// forSummary switches the analysis into summary mode: arguments
	// start thread-local, returns escape their value, and mutations of
	// arguments are recorded.
	forSummary bool
	// dirtyArgFields collects, per argument reference, the reference
	// fields the method may write (summary mode): the complement of the
	// summary's ArgPreNullFields. intMutatedArgs collects arguments
	// whose integer fields/elements it may write.
	dirtyArgFields map[RefID]map[string]bool
	intMutatedArgs RefSet
	// contentMutated collects contents references (refArgContent) the
	// method may write through: mutating an object merely reachable from
	// an argument compromises the argument, since the caller has no
	// finer name for the affected object.
	contentMutated RefSet
	// summaryReach collects references reachable from returned values or
	// escaped objects at return points (summary mode): such arguments
	// are compromised for the caller. argStored collects, per argument
	// index, everything reachable from references the method stored into
	// that argument's fields: an argument stored into a DIFFERENT
	// argument's fields is compromised (the caller gains an untracked
	// path to it), while stores into an argument's own fields are
	// covered by the targeted dirty-field invalidation.
	summaryReach RefSet
	argStored    map[int]RefSet
	// argRefs is the set of argument and contents references (summary
	// mode), cached for the per-return freshness check.
	argRefs RefSet
	// retNotFresh records that some return statement's value failed the
	// strict freshness conditions (see checkReturnFresh); it clears the
	// summary's ReturnsFresh claim.
	retNotFresh bool

	// statSummaryCalls counts call sites judged with a summary in hand;
	// statFreshReturns counts those whose fresh return was modeled as an
	// allocation. Both are counted during the judgment pass only (each
	// reachable block exactly once), so they are deterministic.
	statSummaryCalls int
	statFreshReturns int

	// everNL accumulates every reference that enters NL in any state,
	// for the flow-insensitive-escape ablation.
	everNL RefSet

	visits    int
	maxVisits int
	// deadline is the wall-clock bail-out time (zero = none);
	// maxStateSize caps any block out-state's footprint (0 = none).
	deadline     time.Time
	maxStateSize int
	// cancel, when non-nil, is the caller context's Done channel, polled
	// at the same block-visit boundaries as the deadline.
	cancel <-chan struct{}
}

// AnalyzeMethod runs the analysis on one method, setting the Elide /
// ElideNullOrSame flags on its instructions and returning a report.
// ModeNone clears all flags and returns immediately.
//
// The analysis never takes a method (or the pipeline above it) down: a
// panic anywhere inside is recovered and converted into the conservative
// degraded result — all flags cleared, every barrier kept — with the
// recovered value and stack in the report. The same holds for methods
// exceeding the Options budgets (visit count, deadline, state size).
func AnalyzeMethod(p *bytecode.Program, m *bytecode.Method, opts Options) (*MethodReport, error) {
	return AnalyzeMethodCtx(context.Background(), p, m, opts)
}

// AnalyzeMethodCtx is AnalyzeMethod under a caller context: cancellation
// is observed at block-visit boundaries (the fixed point's only loop) and
// degrades the method soundly to the all-barriers result with reason
// DegradeCancelled — analysis is never torn down mid-judgment, so a
// cancelled request can still ship a correct, conservative program. A
// context deadline earlier than Options.Deadline tightens it.
func AnalyzeMethodCtx(ctx context.Context, p *bytecode.Program, m *bytecode.Method, opts Options) (rep *MethodReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = degradedReport(p, m, DegradePanic,
				fmt.Sprintf("%v\n%s", r, debug.Stack()))
			err = nil
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return degradedReport(p, m, DegradeCancelled, cerr.Error()), nil
	}
	rep = &MethodReport{Method: m, Converged: true, BytecodeBytes: m.Size()}
	for pc := range m.Code {
		m.Code[pc].Elide = false
		m.Code[pc].ElideNullOrSame = false
		m.Code[pc].ElideRearrange = false
	}
	countSites(p, m, rep)
	if opts.Mode == ModeNone {
		return rep, nil
	}
	g, err := cfg.Build(m)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	a := newAnalyzer(p, m, g, opts, false)
	a.maxStateSize = opts.MaxStateSize
	if opts.MaxBlockVisits > 0 {
		a.maxVisits = opts.MaxBlockVisits
	}
	if opts.Interprocedural {
		a.summaries = opts.Summaries
	}
	if opts.Deadline > 0 {
		a.deadline = time.Now().Add(opts.Deadline)
	}
	if d, ok := ctx.Deadline(); ok && (a.deadline.IsZero() || d.Before(a.deadline)) {
		a.deadline = d
	}
	if ctx.Done() != nil {
		a.cancel = ctx.Done()
	}
	rep.AbstractRefs = a.refs.count()

	if reason := a.fixpoint(); reason != DegradeNone {
		rep.Converged = false
		rep.Degraded = reason
		rep.BlockVisits = a.visits
		return rep, nil
	}
	rep.BlockVisits = a.visits
	a.judge(rep)
	return rep, nil
}

// degradedReport is the conservative bail-out result: every elision flag
// cleared (all barriers kept), sites counted, and the reason recorded.
func degradedReport(p *bytecode.Program, m *bytecode.Method, reason DegradeReason, detail string) *MethodReport {
	for pc := range m.Code {
		m.Code[pc].Elide = false
		m.Code[pc].ElideNullOrSame = false
		m.Code[pc].ElideRearrange = false
	}
	rep := &MethodReport{Method: m, BytecodeBytes: m.Size(), Degraded: reason, DegradeDetail: detail}
	countSites(p, m, rep)
	return rep
}

// countSites counts the barrier sites (reference-storing putfield and
// aastore instructions).
func countSites(p *bytecode.Program, m *bytecode.Method, rep *MethodReport) {
	for pc := range m.Code {
		in := &m.Code[pc]
		switch in.Op {
		case bytecode.OpPutField:
			if ft := p.FieldType(in.Field); ft.IsRef() {
				rep.FieldSites++
			}
		case bytecode.OpAAStore:
			rep.ArraySites++
		}
	}
}

// newAnalyzer sets up the engine for one method: its reference universe,
// slot table, per-instruction field ids, reusable buffers and the default
// visit budget.
func newAnalyzer(p *bytecode.Program, m *bytecode.Method, g *cfg.Graph, opts Options, forSummary bool) *analyzer {
	a := &analyzer{
		prog: p, m: m, g: g, opts: opts,
		refs:       buildRefTable(p, m, opts, forSummary),
		fieldAt:    make([]fieldID, len(m.Code)),
		entry:      make([]*state, len(g.Blocks)),
		forSummary: forSummary,
		maxVisits:  200*len(g.Blocks) + 2000,
	}
	a.slots = newSlotTable(a.refs)
	for pc := range m.Code {
		switch in := &m.Code[pc]; in.Op {
		case bytecode.OpGetField, bytecode.OpPutField, bytecode.OpGetStatic, bytecode.OpPutStatic:
			a.fieldAt[pc] = a.slots.fieldOf(in.Field)
		}
	}
	a.scratch = &state{tab: a.slots}
	a.spare = &state{tab: a.slots}
	return a
}

// initialState builds the method-entry state of §2.3 / §3.4.
func (a *analyzer) initialState() *state {
	s := newState(a.slots, a.m.NumSlots)
	s.nl = SingletonRef(GlobalRefID)
	for i := range s.locals {
		s.locals[i] = Bottom
	}
	slot := 0
	for i := 0; i < a.m.NumArgs(); i++ {
		at := a.m.ArgType(i)
		if at.IsRef() {
			r := a.refs.argRef[i]
			s.locals[slot] = RefValue(SingletonRef(r))
			if !(a.m.Ctor && i == 0) && !a.forSummary {
				// Non-constructor reference arguments are non-thread-
				// local from the start. In summary mode they start
				// local so their genuine escapes can be observed.
				s.nl = s.nl.With(r)
			}
			if at.Kind == bytecode.KindArray {
				// Len(R_arg(i)) = fresh constant unknown (§3.4).
				s.setLength(r, intval.OfConstU(a.namer.FreshConst()))
			}
		} else {
			// Integer inputs become constant unknowns (§3.4).
			s.locals[slot] = IntValue(intval.OfConstU(a.namer.FreshConst()))
		}
		slot++
	}
	a.everNL = s.nl
	if a.forSummary {
		a.argRefs = EmptyRefSet
		for _, r := range a.refs.argRef {
			a.argRefs = a.argRefs.With(r)
		}
		for _, r := range a.refs.argContent {
			a.argRefs = a.argRefs.With(r)
		}
	}
	return s
}

// rpoWorklist is a priority worklist over block ids ordered by
// reverse-postorder index: pop returns the pending block earliest in RPO,
// so a block's predecessors tend to stabilize before it is re-analyzed
// (the classic iteration order for forward dataflow problems).
type rpoWorklist struct {
	prio   []int // block id -> rpo index
	heap   []int // block ids, min-heap on prio
	inWork []bool
}

func newRPOWorklist(rpoIndex []int) *rpoWorklist {
	return &rpoWorklist{prio: rpoIndex, inWork: make([]bool, len(rpoIndex))}
}

func (w *rpoWorklist) push(id int) {
	if w.inWork[id] {
		return
	}
	w.inWork[id] = true
	w.heap = append(w.heap, id)
	i := len(w.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if w.prio[w.heap[p]] <= w.prio[w.heap[i]] {
			break
		}
		w.heap[p], w.heap[i] = w.heap[i], w.heap[p]
		i = p
	}
}

func (w *rpoWorklist) pop() (int, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	id := w.heap[0]
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && w.prio[w.heap[l]] < w.prio[w.heap[min]] {
			min = l
		}
		if r < last && w.prio[w.heap[r]] < w.prio[w.heap[min]] {
			min = r
		}
		if min == i {
			break
		}
		w.heap[min], w.heap[i] = w.heap[i], w.heap[min]
		i = min
	}
	w.inWork[id] = false
	return id, true
}

// deadlineCheckInterval spaces out the wall-clock reads in the fixed
// point: one time.Now() per this many block visits.
const deadlineCheckInterval = 32

// fixpoint iterates blocks to a fixed point in RPO priority order. A
// non-DegradeNone return means a budget was exhausted and the method must
// degrade to the conservative result.
func (a *analyzer) fixpoint() DegradeReason {
	a.entry[0] = a.initialState()
	work := newRPOWorklist(a.g.RPOIndex())
	work.push(0)
	for {
		id, ok := work.pop()
		if !ok {
			return DegradeNone
		}
		a.visits++
		if a.visits > a.maxVisits {
			return DegradeVisitBudget
		}
		if a.visits%deadlineCheckInterval == 0 {
			if a.cancel != nil {
				select {
				case <-a.cancel:
					return DegradeCancelled
				default:
				}
			}
			if !a.deadline.IsZero() && time.Now().After(a.deadline) {
				return DegradeDeadline
			}
		}
		out := a.scratch
		out.copyFrom(a.entry[id])
		targets := a.simulate(out, a.g.Blocks[id], nil)
		if a.maxStateSize > 0 && out.footprint() > a.maxStateSize {
			return DegradeStateSize
		}
		a.everNL = a.everNL.Union(out.nl)
		for _, tgt := range targets {
			var changed bool
			switch cur := a.entry[tgt]; {
			case cur == nil:
				a.entry[tgt] = out.clone()
				changed = true
			case len(a.g.Blocks[tgt].Preds) == 1:
				// A single-predecessor block's entry is exactly its
				// predecessor's out state; re-merging it with its own
				// stale entry would degrade stride variables to ⊤
				// (merging i=0 from the first pass with i=v from the
				// head's fixed point). Joins happen only at real join
				// points.
				changed = !statesEqual(cur, out)
				cur.copyFrom(out)
			default:
				changed = mergeStates(a.spare, cur, out, &a.namer, a.opts.NoStrideInference)
				a.entry[tgt], a.spare = a.spare, cur
			}
			if changed {
				work.push(tgt)
			}
		}
	}
}

// judge performs the final pass: with fixed-point entry states, it
// re-simulates every reachable block, and the judgment hook marks sites
// ("the last such judgment (at the fixed point of the analysis) is
// correct", §2.4).
func (a *analyzer) judge(rep *MethodReport) {
	fieldElided := map[int]bool{}
	arrayElided := map[int]bool{}
	nosElided := map[int]bool{}
	rearranged := map[int]bool{}
	judgeFn := func(pc int, kind judgeKind) {
		switch kind {
		case judgeField:
			fieldElided[pc] = true
		case judgeArray:
			arrayElided[pc] = true
		case judgeNullOrSame:
			nosElided[pc] = true
		case judgeRearrange:
			rearranged[pc] = true
		}
	}
	// Visit blocks in reverse postorder so that a single-predecessor
	// block can continue its predecessor's judge-pass state and
	// rearrangement tracker: swaps routinely straddle the conditional
	// guard and its then-block, and straight-line flow preserves the
	// value identities the detector relies on.
	//
	// outs[id] is block id's out state while conts[id] single-predecessor
	// successors have yet to continue from it; the last of them takes the
	// state over instead of copying it, and a state nobody continues from
	// goes back to free. The fixed point's two buffers start the list.
	outs := make([]*state, len(a.g.Blocks))
	conts := make([]int, len(a.g.Blocks))
	free := []*state{a.scratch, a.spare}
	copyOf := func(src *state) *state {
		st := &state{tab: a.slots}
		if n := len(free); n > 0 {
			st, free = free[n-1], free[:n-1]
		}
		st.copyFrom(src)
		return st
	}
	trackers := make([]*rearrangeTracker, len(a.g.Blocks))
	for _, id := range a.g.ReversePostorder() {
		if a.entry[id] == nil {
			continue
		}
		b := a.g.Blocks[id]
		for _, succ := range b.Succs {
			if len(a.g.Blocks[succ].Preds) == 1 {
				conts[id]++
			}
		}
		var st *state
		a.rt = nil
		if len(b.Preds) == 1 && outs[b.Preds[0]] != nil {
			p := b.Preds[0]
			if a.opts.Rearrange && trackers[p] != nil {
				a.rt = trackers[p].fork()
			}
			if conts[p]--; conts[p] == 0 {
				st, outs[p] = outs[p], nil
			} else {
				st = copyOf(outs[p])
			}
		} else {
			st = copyOf(a.entry[id])
		}
		if a.opts.Rearrange && a.rt == nil {
			a.rt = newRearrangeTracker()
		}
		a.simulate(st, b, judgeFn)
		if conts[id] > 0 {
			outs[id] = st
		} else {
			free = append(free, st)
		}
		if a.rt != nil {
			a.rt.detectSwaps(judgeFn)
			trackers[id] = a.rt
			a.rt = nil
		}
	}
	for pc := range fieldElided {
		a.m.Code[pc].Elide = true
		rep.FieldElided++
	}
	if a.opts.Mode == ModeFieldArray {
		for pc := range arrayElided {
			a.m.Code[pc].Elide = true
			rep.ArrayElided++
		}
	}
	if a.opts.NullOrSame {
		for pc := range nosElided {
			if !a.m.Code[pc].Elide {
				a.m.Code[pc].ElideNullOrSame = true
				rep.NullOrSame++
			}
		}
	}
	if a.opts.Rearrange {
		for pc := range rearranged {
			in := &a.m.Code[pc]
			if !in.Elide && !in.ElideNullOrSame {
				in.ElideRearrange = true
				rep.Rearranged++
			}
		}
	}
	rep.SummaryCalls = a.statSummaryCalls
	rep.FreshReturns = a.statFreshReturns
}

// judgeKind distinguishes the three elision judgments.
type judgeKind int

const (
	judgeField judgeKind = iota
	judgeArray
	judgeNullOrSame
	judgeRearrange
)

// buildGraph wraps cfg.Build for use by the summary computation.
func buildGraph(m *bytecode.Method) (*cfg.Graph, error) { return cfg.Build(m) }

// contentRef resolves the contents reference a summary-mode read of an
// untracked field of r yields: the argument's contents reference for a
// non-unique argument, r itself for contents (deep reads stay contents),
// nothing otherwise. A constructor's unique receiver keeps the plain
// allocation defaults — its fields genuinely start null.
func (a *analyzer) contentRef(r RefID) (RefID, bool) {
	info := a.refs.info(r)
	switch info.kind {
	case refArg:
		if info.unique {
			return 0, false
		}
		cr, ok := a.refs.argContent[info.arg]
		return cr, ok
	case refArgContent:
		return r, true
	}
	return 0, false
}

// sigmaDefault is the value an absent σ entry denotes for a field of r:
// the allocation default (null / 0) — except in summary mode for
// non-unique arguments and contents references, whose untracked fields
// hold unknown caller-provided values (the contents reference for
// reference fields, ⊤ for integers). Without the contents abstraction a
// callee could read arg.f, publish it, and the summary would never learn
// that the argument's reachable objects escaped.
func (a *analyzer) sigmaDefault(r RefID, wantInt bool) Value {
	if a.forSummary {
		if cr, ok := a.contentRef(r); ok {
			if wantInt {
				return TopInt()
			}
			return RefValue(SingletonRef(cr))
		}
	}
	if wantInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// fieldValue is lookup(σ, r, NL, f) honoring the summary-mode contents
// abstraction for absent entries.
func (a *analyzer) fieldValue(s *state, r RefID, f fieldID, wantInt bool) Value {
	if a.forSummary && !s.nl.Has(r) {
		if _, ok := a.contentRef(r); ok {
			if _, has := s.sigmaGet(r, f); !has {
				return a.sigmaDefault(r, wantInt)
			}
		}
	}
	return s.lookup(r, f, wantInt)
}

// weakStore is the weak update σ(r, f) ⊔= val, an absent entry standing
// for the field's default.
func (a *analyzer) weakStore(s *state, r RefID, f fieldID, val Value, wantInt bool) {
	old, ok := s.sigmaGet(r, f)
	if !ok {
		old = a.sigmaDefault(r, wantInt)
	}
	s.sigmaSet(r, f, weakMergeValue(old, val))
}

// markDirtyField records, in summary mode, a reference-field write
// against its targets: a direct write to an argument dirties that field
// of the argument (the caller invalidates just that σ fact), while a
// write through the argument's contents compromises the whole argument —
// the caller has no finer name for the written object.
func (a *analyzer) markDirtyField(targets RefSet, field string) {
	if !a.forSummary {
		return
	}
	targets.ForEach(func(r RefID) {
		switch a.refs.info(r).kind {
		case refArg:
			m := a.dirtyArgFields[r]
			if m == nil {
				if a.dirtyArgFields == nil {
					a.dirtyArgFields = map[RefID]map[string]bool{}
				}
				m = map[string]bool{}
				a.dirtyArgFields[r] = m
			}
			m[field] = true
		case refArgContent:
			a.contentMutated = a.contentMutated.With(r)
		}
	})
}

// markIntMutated records integer-field/element writes: against an
// argument it taints only the caller's integer facts, but a write
// through contents compromises the argument (the caller's integer facts
// about reachable objects have no per-object taint channel).
func (a *analyzer) markIntMutated(targets RefSet) {
	targets.ForEach(func(r RefID) {
		switch a.refs.info(r).kind {
		case refArg:
			a.intMutatedArgs = a.intMutatedArgs.With(r)
		case refArgContent:
			a.contentMutated = a.contentMutated.With(r)
		}
	})
}

// markIntMutatedIf conditionally records scalar mutation.
func (a *analyzer) markIntMutatedIf(cond bool, targets RefSet) {
	if cond {
		a.markIntMutated(targets)
	}
}

// invalidateField drops the caller's σ facts about one callee-written
// reference field of the passed argument's referents: the entry joins
// with {GlobalRef} ("possibly rewritten with something unknown"), and a
// dirtied $elems additionally kills the null-range facts the array
// analysis relies on. Thread-locality of the referents survives — that
// is the point of the summary.
func (a *analyzer) invalidateField(s *state, targets RefSet, field string) {
	f := a.slots.fieldNamed(field)
	targets.ForEach(func(r RefID) {
		if s.nl.Has(r) {
			return // lookups on escaped references are already ⊤
		}
		a.weakStore(s, r, f, RefValue(SingletonRef(GlobalRefID)), false)
		if f == elemsFieldID {
			s.delNR(r)
		}
	})
}

// pushCallResult models the call's return value. A reference return
// whose callee summary proves ReturnsFresh is modeled like an allocation
// site: the call-site A name is renamed into its B summary, reset to
// thread-local with null reference fields, and pushed — except its
// integer fields are tainted, since the callee may have initialized
// them. Anything else returns the unknown {GlobalRef} / ⊤.
func (a *analyzer) pushCallResult(s *state, pc int, callee *bytecode.Method, sum *MethodSummary, judging bool) {
	if callee.Return == bytecode.Void {
		return
	}
	if !callee.Return.IsRef() {
		s.push(TopInt())
		return
	}
	if sum != nil && sum.ReturnsFresh {
		if ra, ok := a.refs.callA[pc]; ok {
			if judging {
				a.statFreshReturns++
			}
			rb := a.refs.callB[pc]
			if !a.opts.UnsoundSkipBDemotion {
				s.renameAlloc(ra, rb)
			}
			s.intTainted = s.intTainted.With(ra)
			if !a.opts.SingleRefPerSite {
				// Mirror OpNewInstance: fresh A name with the σ defaults
				// (all reference fields null per the freshness proof).
				s.clearSigmaRef(ra)
				s.nl = s.nl.Without(ra)
				s.delLength(ra)
				s.delNR(ra)
			}
			s.push(RefValue(SingletonRef(ra)))
			return
		}
	}
	s.push(RefValue(SingletonRef(GlobalRefID)))
}

// recordSummaryReturn accumulates, at a return point, every reference a
// caller (or another thread) could reach afterwards: escaped references
// and the returned value feed summaryReach (compromising), while
// references stored into an argument's fields feed that argument's
// argStored set — they compromise only the OTHER arguments found there.
// It also applies the strict freshness test to the returned value.
func (a *analyzer) recordSummaryReturn(s *state, hasValue bool) {
	set := s.nl
	if hasValue {
		top := s.stack[len(s.stack)-1]
		if top.IsRefs() {
			set = set.Union(top.Refs())
			a.checkReturnFresh(s, top.Refs())
		}
	}
	a.summaryReach = a.summaryReach.Union(s.reachFrom(set))
	for arg := 0; arg < a.m.NumArgs(); arg++ {
		r, ok := a.refs.argRef[arg]
		if !ok {
			continue
		}
		for _, i := range a.slots.refSlots[r] {
			v := s.sigmaAt(int(i))
			if !v.IsRefs() {
				continue
			}
			if a.argStored == nil {
				a.argStored = map[int]RefSet{}
			}
			a.argStored[arg] = a.argStored[arg].Union(s.reachFrom(v.Refs()))
		}
	}
}

// storedInOtherArg reports whether reference r (an argument or its
// contents, belonging to argument i) was stored into some other
// argument's fields — an untracked caller-visible alias.
func (a *analyzer) storedInOtherArg(i int, r RefID) bool {
	for j, set := range a.argStored {
		if j != i && set.Has(r) {
			return true
		}
	}
	return false
}

// checkReturnFresh tests the strict ReturnsFresh conditions on one
// return statement's value, clearing the claim when any fails: every
// possible returned object must be an allocation of this method (or a
// callee's fresh return), never escaped, unreachable from any argument
// or its contents, and have every reference field still null — the
// caller will model the call site exactly like an allocation site, so
// any non-null field or caller-visible alias would mint unsound pre-null
// facts. Returning a definite null is trivially fresh.
func (a *analyzer) checkReturnFresh(s *state, refs RefSet) {
	if a.retNotFresh || refs.IsEmpty() {
		return
	}
	argReach := s.reachFrom(a.argRefs)
	ok := true
	refs.ForEach(func(r RefID) {
		switch a.refs.info(r).kind {
		case refAllocA, refAllocB, refCallA, refCallB:
		default:
			ok = false
			return
		}
		if s.nl.Has(r) || argReach.Has(r) {
			ok = false
		}
	})
	if ok {
		refs.ForEach(func(r RefID) {
			for _, i := range a.slots.refSlots[r] {
				if v := s.sigmaAt(int(i)); v.kind == vRefs && !v.refs.IsEmpty() {
					ok = false
				}
			}
		})
	}
	if !ok {
		a.retNotFresh = true
	}
}

// siteLen returns the stable length symbol for a newarray site.
func (a *analyzer) siteLen(pc int) intval.ConstU {
	if a.siteLenConst == nil {
		a.siteLenConst = map[int]intval.ConstU{}
	}
	c, ok := a.siteLenConst[pc]
	if !ok {
		c = a.namer.FreshConst()
		a.siteLenConst[pc] = c
	}
	return c
}

// isNonLocal consults NL, or everNL under the flow-insensitive ablation.
func (a *analyzer) isNonLocal(s *state, r RefID) bool {
	if a.opts.FlowInsensitiveEscape {
		return a.everNL.Has(r)
	}
	return s.nl.Has(r)
}

// trackArrays reports whether Len/NR bookkeeping is active.
func (a *analyzer) trackArrays() bool { return a.opts.Mode == ModeFieldArray }

// simulate interprets one block from the given state. judgeFn, when
// non-nil, receives the elision judgment for each barrier site traversed.
// It transforms s into the block's out state in place and returns the
// successor block ids (valid until the next call).
func (a *analyzer) simulate(s *state, b *cfg.Block, judgeFn func(pc int, kind judgeKind)) []int {
	a.targets = a.targets[:0]
	for pc := b.Start; pc < b.End; pc++ {
		in := &a.m.Code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst, bytecode.OpConstBool:
			s.push(IntValue(intval.Const(in.A)))
		case bytecode.OpConstNull:
			s.push(NullValue())
		case bytecode.OpLoad:
			v := s.locals[in.A]
			if v.IsBottom() {
				// Read of a never-written slot (possible only in
				// unverified code): conservative default by slot type.
				if a.m.SlotTypes[in.A].IsRef() {
					v = RefValue(SingletonRef(GlobalRefID))
				} else {
					v = TopInt()
				}
			}
			if a.rt != nil {
				if v.kind == vInt && v.iv.IsTop() {
					// Freshen the unknown local to a stable per-slot
					// symbol so index expressions stay comparable.
					v = IntValue(a.rt.loadSlotInt(int(in.A), &a.namer))
				} else if v.kind == vRefs {
					v.vn = a.rt.loadSlotRef(int(in.A))
				}
			}
			s.push(v)
		case bytecode.OpStore:
			s.locals[in.A] = s.pop()
			if a.rt != nil {
				a.rt.killSlot(int(in.A))
			}
		case bytecode.OpDup:
			s.push(s.stack[len(s.stack)-1])
		case bytecode.OpPop:
			s.pop()
		case bytecode.OpAdd:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Add(y.Int())))
		case bytecode.OpSub:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Sub(y.Int())))
		case bytecode.OpMul:
			y, x := s.pop(), s.pop()
			s.push(IntValue(x.Int().Mul(y.Int())))
		case bytecode.OpNeg:
			s.push(IntValue(s.pop().Int().Neg()))
		case bytecode.OpDiv, bytecode.OpRem:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpAnd, bytecode.OpOr,
			bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
			bytecode.OpCmpGT, bytecode.OpCmpGE, bytecode.OpRefEQ, bytecode.OpRefNE:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpNot:
			s.pop()
			s.push(TopInt())

		case bytecode.OpGoto:
			a.targets = append(a.targets, a.g.BlockOf(int(in.A)))
			return a.targets
		case bytecode.OpIfTrue, bytecode.OpIfFalse, bytecode.OpIfNull, bytecode.OpIfNonNull:
			s.pop()
			a.targets = append(a.targets, a.g.BlockOf(int(in.A)))

		case bytecode.OpGetStatic:
			ft := a.prog.FieldType(in.Field)
			if ft.IsRef() {
				v := RefValue(SingletonRef(GlobalRefID))
				if a.rt != nil {
					v.vn = a.rt.loadStaticRef(a.slots.name(a.fieldAt[pc]))
				}
				s.push(v)
			} else {
				s.push(TopInt())
			}
		case bytecode.OpPutStatic:
			val := s.pop()
			// Values stored into statics escape (AllNonTL).
			s.escapeValue(val)
			if a.opts.NullOrSame {
				s.dropSrcsForField(a.slots.name(a.fieldAt[pc]))
			}
			if a.rt != nil {
				a.rt.killStatic(a.slots.name(a.fieldAt[pc]))
			}

		case bytecode.OpGetField:
			obj := s.pop()
			ft := a.prog.FieldType(in.Field)
			field := a.fieldAt[pc]
			wantInt := !ft.IsRef()
			var out Value
			first := true
			obj.Refs().ForEach(func(r RefID) {
				v := a.fieldValue(s, r, field, wantInt)
				if first {
					out = v
					first = false
				} else {
					out = weakMergeValue(out, v)
				}
			})
			if first { // obj definitely null: unreachable past the NPE
				if wantInt {
					out = TopInt()
				} else {
					out = NullValue()
				}
			}
			// Null-or-same provenance: a value loaded from (r, f) is
			// trivially "null or the current content of (r, f)".
			if a.opts.NullOrSame && !wantInt {
				if r, one := obj.Refs().Single(); one {
					out = out.withSrcs(singletonSrc(srcKey{ref: r, field: a.slots.name(field)}))
				}
			}
			s.push(out)

		case bytecode.OpPutField:
			val := s.pop()
			obj := s.pop()
			ft := a.prog.FieldType(in.Field)
			field := a.fieldAt[pc]
			if judgeFn != nil && ft.IsRef() {
				a.judgeFieldStore(s, pc, obj.Refs(), field, val, judgeFn)
			}
			if a.forSummary {
				if ft.IsRef() {
					a.markDirtyField(obj.Refs(), a.slots.name(field))
				} else {
					a.markIntMutated(obj.Refs())
				}
			}
			// Strong update for a singleton unique reference, weak
			// otherwise (§2.4).
			if r, one := obj.Refs().Single(); one && a.refs.unique(r) {
				s.sigmaSet(r, field, val)
			} else {
				obj.Refs().ForEach(func(r RefID) {
					a.weakStore(s, r, field, val, !ft.IsRef())
				})
			}
			if a.opts.NullOrSame {
				s.dropSrcsForField(a.slots.name(field))
			}
			s.escapeCond(obj.Refs(), val)

		case bytecode.OpNewInstance:
			ra := a.refs.allocA[pc]
			rb := a.refs.allocB[pc]
			if !a.opts.UnsoundSkipBDemotion {
				s.renameAlloc(ra, rb)
			}
			if a.opts.SingleRefPerSite {
				// Weak semantics: the site's fields merge with null
				// (no-op for absent entries) rather than resetting.
				s.push(RefValue(SingletonRef(ra)))
				break
			}
			// Fresh A name: the allocator zeroed the fields, which is
			// exactly the σ default, so clearing any stale entries
			// suffices.
			s.clearSigmaRef(ra)
			s.nl = s.nl.Without(ra)
			s.intTainted = s.intTainted.Without(ra)
			s.push(RefValue(SingletonRef(ra)))

		case bytecode.OpNewArray:
			n := s.pop().Int()
			ra := a.refs.allocA[pc]
			rb := a.refs.allocB[pc]
			if !a.opts.UnsoundSkipBDemotion {
				s.renameAlloc(ra, rb)
			}
			// The summary B inherits no length/range facts: its members'
			// lengths differ across the site's executions.
			s.delLength(rb)
			s.delNR(rb)
			if !a.opts.SingleRefPerSite {
				s.clearSigmaRef(ra)
				s.nl = s.nl.Without(ra)
				s.intTainted = s.intTainted.Without(ra)
				s.delLength(ra)
				s.delNR(ra)
				if a.trackArrays() {
					if n.IsTop() {
						// Unknown allocation length: name it with the
						// site's length symbol. Within one window (until
						// the next allocation here renames R_A) the most
						// recent array's length is a fixed value, which
						// is all the in-window judgments rely on.
						n = intval.OfConstU(a.siteLen(pc))
					}
					s.setLength(ra, n)
					if in.Type.IsRef() {
						// NR(R_A) = [0 .. n-1] (§3.3).
						s.setNR(ra, intval.Full(intval.Const(0), n.Sub(intval.Const(1))))
					}
				}
			}
			s.push(RefValue(SingletonRef(ra)))

		case bytecode.OpArrayLength:
			arr := s.pop()
			out := intval.Top
			first := true
			arr.Refs().ForEach(func(r RefID) {
				l := s.lengthOf(r)
				if first {
					out = l
					first = false
				} else {
					out = intval.Merge(out, l, nil)
				}
			})
			s.push(IntValue(out))

		case bytecode.OpAALoad:
			ind := s.pop().Int()
			arr := s.pop()
			var out Value
			first := true
			arr.Refs().ForEach(func(r RefID) {
				v := a.fieldValue(s, r, elemsFieldID, false)
				if first {
					out = v
					first = false
				} else {
					out = weakMergeValue(out, v)
				}
			})
			if first {
				out = NullValue()
			}
			if a.rt != nil {
				out.eprov = &elemProv{arrVN: arr.vn, arr: arr.Refs(), idx: ind, seq: a.rt.tick()}
			}
			s.push(out)

		case bytecode.OpAAStore:
			val := s.pop()
			ind := s.pop().Int()
			arr := s.pop()
			if judgeFn != nil {
				a.judgeArrayStore(s, pc, arr.Refs(), ind, judgeFn)
			}
			if a.rt != nil {
				a.rt.recordStore(pc, arr.vn, arr.Refs(), ind, val.eprov)
			}
			if a.forSummary {
				a.markDirtyField(arr.Refs(), elemsField)
			}
			arr.Refs().ForEach(func(r RefID) {
				a.weakStore(s, r, elemsFieldID, val, false)
				if a.trackArrays() {
					if rng := s.nrOf(r); !rng.IsEmpty() {
						s.setNR(r, rng.Contract(ind))
					}
				}
			})
			s.escapeCond(arr.Refs(), val)

		case bytecode.OpIALoad:
			s.pop()
			s.pop()
			s.push(TopInt())
		case bytecode.OpIAStore:
			s.pop()
			s.pop()
			arr := s.pop()
			if a.forSummary {
				a.markIntMutated(arr.Refs())
			}

		case bytecode.OpInvoke:
			callee := a.prog.Method(in.Method)
			n := len(s.stack) - callee.NumArgs()
			a.args = append(a.args[:0], s.stack[n:]...)
			s.stack = s.stack[:n]
			args := a.args
			// Passed references escape: nAllNonTL (§2.4) — unless an
			// interprocedural summary proves the callee neither
			// publishes nor mutates the argument.
			var sum *MethodSummary
			if a.summaries != nil {
				sum = a.summaries[in.Method]
			}
			if judgeFn != nil && sum != nil {
				a.statSummaryCalls++
			}
			for i, v := range args {
				if sum != nil && i < len(sum.ArgCompromised) && !sum.ArgCompromised[i] {
					if v.IsRefs() {
						// The argument stays thread-local; if the callee
						// may write its scalar fields, the caller forgets
						// its integer facts about it, and the caller's σ
						// facts die for exactly the reference fields the
						// callee may write (the non-pre-null ones).
						if sum.ArgIntMutated[i] {
							s.intTainted = s.intTainted.Union(v.Refs())
						}
						dirty := dirtyRefFields(a.prog, callee, sum, i)
						for _, f := range dirty {
							a.invalidateField(s, v.Refs(), f)
						}
						if a.forSummary {
							// Propagate mutation effects transitively in
							// summary mode.
							a.markIntMutatedIf(sum.ArgIntMutated[i], v.Refs())
							for _, f := range dirty {
								a.markDirtyField(v.Refs(), f)
							}
						}
					}
					continue
				}
				s.escapeValue(v)
			}
			if a.opts.NullOrSame {
				// The callee may write any field of any escaped object.
				s.dropAllSrcs()
			}
			if a.rt != nil {
				a.rt.clobber()
			}
			a.pushCallResult(s, pc, callee, sum, judgeFn != nil)

		case bytecode.OpSpawn:
			recv := s.pop()
			s.escapeValue(recv)
			if a.opts.NullOrSame {
				s.dropAllSrcs()
			}
			if a.rt != nil {
				a.rt.clobber()
			}

		case bytecode.OpPrint:
			s.pop()

		case bytecode.OpReturn, bytecode.OpReturnValue, bytecode.OpTrap:
			if a.forSummary && in.Op != bytecode.OpTrap {
				a.recordSummaryReturn(s, in.Op == bytecode.OpReturnValue)
			}
			return a.targets
		}
	}
	a.targets = append(a.targets, a.g.BlockOf(b.End))
	return a.targets
}

// judgeFieldStore evaluates the putfield elision judgments (§2.4 pre-null
// and §4.3 null-or-same) in the pre-instruction state.
func (a *analyzer) judgeFieldStore(s *state, pc int, obj RefSet, field fieldID, val Value, judgeFn func(int, judgeKind)) {
	preNull := true
	obj.ForEach(func(r RefID) {
		if a.isNonLocal(s, r) || !s.fieldIsNull(r, field) {
			preNull = false
		}
	})
	if preNull {
		judgeFn(pc, judgeField)
		return
	}
	if !a.opts.NullOrSame {
		return
	}
	nos := true
	obj.ForEach(func(r RefID) {
		if a.isNonLocal(s, r) {
			nos = false
			return
		}
		if s.fieldIsNull(r, field) {
			return // overwrites null for this target
		}
		if val.srcs.has(srcKey{ref: r, field: a.slots.name(field)}) {
			return // rewrites the value already present
		}
		nos = false
	})
	if nos {
		judgeFn(pc, judgeNullOrSame)
	}
}

// judgeArrayStore evaluates the aastore elision judgment: every possible
// array is thread-local and the index lies in its known-null range.
func (a *analyzer) judgeArrayStore(s *state, pc int, arr RefSet, ind intval.IntVal, judgeFn func(int, judgeKind)) {
	if !a.trackArrays() {
		return
	}
	ok := true
	arr.ForEach(func(r RefID) {
		if a.isNonLocal(s, r) {
			ok = false
			return
		}
		if !s.nrOf(r).Covers(ind) {
			ok = false
		}
	})
	if ok {
		judgeFn(pc, judgeArray)
	}
}
