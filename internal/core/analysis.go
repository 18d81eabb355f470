package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"satbelim/internal/bytecode"
	"satbelim/internal/intval"
	"satbelim/internal/num"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
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

	// Analysis budgets (sound degradation), structural and applied to
	// every fixed point; a wall-clock bound rides on the caller's context.
	// A judged method exceeding one bails out to the always-sound result —
	// every barrier kept — with the reason in MethodReport.Degraded; a
	// summarized one gets the worst summary.
	//
	// MaxBlockVisits bounds the fixed point per method (0 = default).
	MaxBlockVisits int
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
	// DegradeDeadline: the caller context's deadline expired
	// (ctx.Err() is context.DeadlineExceeded).
	DegradeDeadline DegradeReason = "deadline"
	// DegradeStateSize: an abstract state outgrew MaxStateSize.
	DegradeStateSize DegradeReason = "state-size"
	// DegradePanic: the analysis panicked; the recovered value and stack
	// are in MethodReport.DegradeDetail.
	DegradePanic DegradeReason = "panic"
	// DegradeCancelled: the caller's context was cancelled for any other
	// reason. Like DegradeDeadline it is a real-time condition, never
	// reproducible from the inputs alone.
	DegradeCancelled DegradeReason = "cancelled"
)

// stopReason names why a done context stopped the analysis: its deadline
// or any other cancellation.
func stopReason(err error) DegradeReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return DegradeDeadline
	}
	return DegradeCancelled
}

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

// analyzer is the per-method fixed-point engine: the transfer functions'
// context plus the entry states they are iterated over and the budgets
// that stop the iteration.
type analyzer struct {
	transfer
	// ws is the worker's workspace, whose buffers the method's analysis
	// borrows.
	ws *workspace

	// entry holds each join's entry state (nil until first reached) and
	// nothing for any other block: only where states merge must one be
	// kept. Every entry owns its buffers: the fixed point simulates blocks
	// in the workspace's scratch state, gives a first-reached join a copy
	// cut from slab, which is sized by the method's joins, and merges a
	// join into the workspace's spare state and copies the result into the
	// entry it replaces, so a visit allocates only when a buffer must grow.
	// A single-predecessor block's entry is its predecessor's out state,
	// held in a workspace state only while the block is pending.
	entry []*state
	slab  entrySlab

	visits    int
	maxVisits int
	// ctx is the caller's context; its Done channel is polled every
	// doneCheckInterval block visits.
	ctx context.Context
}

// workspace is what one analysis worker reuses from method to method: the
// buffers whose lifetime ends with a method's analysis — the slot table,
// the fixed point's scratch and spare states, its worklist, its pending
// single-predecessor entries and its reached row, simulate's successor and
// argument buffers, and the judge pass's per-block bookkeeping — and the
// states both passes take from and return to the free list. Each judging
// worker of one AnalyzeProgramCtx call owns one, as do a serial run and
// computeSummaries, and newAnalyzer, fixpoint and judge re-initialise what
// they use, so no result depends on what the workspace analyzed before.
// Join entry states are not here: each belongs to its method (entrySlab,
// initialState), and no workspace state ever becomes one.
type workspace struct {
	slots          slotTable
	scratch, spare state
	work           rpoWorklist
	// pending[id] is single-predecessor block id's entry state while the
	// block is on the worklist, nil otherwise; reached[id] says whether the
	// fixed point reached block id at all.
	pending []*state
	reached []bool
	sim     simBuffers
	outs    []judgeOut
	free    []*state
	// extra holds the states beyond scratch and spare: the fixed point's
	// pending entries and the judge pass's out states.
	extra []*state
}

func newWorkspace() *workspace {
	ws := &workspace{}
	ws.scratch.tab = &ws.slots
	ws.spare.tab = &ws.slots
	return ws
}

// copyOf returns a copy of src in a state off the free list, or in a new
// one of the worker's when the list is empty.
func (ws *workspace) copyOf(src *state) *state {
	var st *state
	if n := len(ws.free); n > 0 {
		st, ws.free = ws.free[n-1], ws.free[:n-1]
	} else {
		st = &state{tab: &ws.slots}
		ws.extra = append(ws.extra, st)
	}
	st.copyFrom(src)
	return st
}

// analyzeMethod analyzes method number i of the build px indexes on the
// worker owning ws and returns its report and its row of verdicts (nil:
// none proven). It never takes the build down: a panic, an exceeded budget
// (visit count, state size) or the end of ctx degrades the method to the
// conservative result — every barrier kept — with the reason in the
// report. On a worker's lane ("" when tracing is off) a span carries the
// fixpoint stats the §4.4 measurements care about; tracing observes only.
func analyzeMethod(ctx context.Context, px *programIndex, ws *workspace, i int, opts Options, lane string) (*MethodReport, []bytecode.Verdict, error) {
	m := px.syms.Methods[i]
	idx, err := px.of(i)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	var sp obs.Span
	if lane != "" {
		sp = obs.StartSpan(lane, "analysis", m.QualifiedName())
	}
	rep := &MethodReport{Method: m, BytecodeBytes: m.Size()}
	verdicts := analyze(ctx, px, ws, idx, m, opts, rep)
	rep.Converged = rep.Degraded == DegradeNone
	publish(px.syms, idx.Body, verdicts, rep)
	if lane != "" {
		sp.EndArgs(
			obs.KV{K: "block_visits", V: int64(rep.BlockVisits)},
			obs.KV{K: "converged", V: num.B2I(rep.Converged)},
			obs.KV{K: "degraded", S: string(rep.Degraded)},
		)
		obs.Count("analysis.methods", 1)
		obs.Count("analysis.block_visits", int64(rep.BlockVisits))
		if rep.Degraded != DegradeNone {
			obs.Count("analysis.degraded", 1)
		}
	}
	return rep, verdicts, nil
}

// analyze decides the method's verdicts (nil: none proven) and fills the
// engine's part of the report; a degraded method returns nil verdicts with
// the reason in rep.
func analyze(ctx context.Context, px *programIndex, ws *workspace, idx methodIndex, m *bytecode.Method, opts Options, rep *MethodReport) (verdicts []bytecode.Verdict) {
	defer func() {
		if r := recover(); r != nil {
			*rep = MethodReport{Method: m, BytecodeBytes: rep.BytecodeBytes, Degraded: DegradePanic,
				DegradeDetail: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			verdicts = nil
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		rep.Degraded, rep.DegradeDetail = stopReason(cerr), cerr.Error()
		return nil
	}
	if opts.Mode == ModeNone {
		return nil
	}
	a := newAnalyzer(ctx, px, ws, m, idx, opts)
	if opts.Interprocedural {
		a.summaries = opts.Summaries
	}
	rep.AbstractRefs = a.refs.judged

	rep.Degraded = a.fixpoint()
	rep.BlockVisits = a.visits
	if rep.Degraded != DegradeNone {
		return nil
	}
	j := a.judge()
	rep.SummaryCalls, rep.FreshReturns = j.summaryCalls, j.freshReturns
	return j.verdicts
}

// publish is the one counter of sites and elisions: it counts the
// report's static columns off the method's verdicts (nil: every barrier
// kept), the row the build's table will hold for it.
func publish(syms *bytecode.Symbols, body *bytecode.Body, verdicts []bytecode.Verdict, rep *MethodReport) {
	m := body.Graph.Method
	for pc := range m.Code {
		kind, ok := satb.SiteOf(syms, m.Code[pc].Op, body.FieldAt[pc])
		if !ok {
			continue
		}
		sites, elided := &rep.FieldSites, &rep.FieldElided
		if kind == satb.ArraySite {
			sites, elided = &rep.ArraySites, &rep.ArrayElided
		}
		*sites++
		if verdicts == nil {
			continue
		}
		switch verdicts[pc] {
		case bytecode.VerdictPreNull:
			*elided++
		case bytecode.VerdictNullOrSame:
			rep.NullOrSame++
		case bytecode.VerdictRearrange:
			rep.Rearranged++
		}
	}
}

// newAnalyzer sets up the engine for one method of the build px indexes
// on ws: the workspace's slot table, emptied for the method's references,
// and what stops its fixed point besides opts.MaxStateSize: the visit
// budget (opts.MaxBlockVisits, else a default sized by the method) and
// ctx. Judging and summarizing both start here, so both stop for the same
// reasons. It judges unless the caller gives it a summary recorder.
func newAnalyzer(ctx context.Context, px *programIndex, ws *workspace, m *bytecode.Method, idx methodIndex, opts Options) *analyzer {
	ws.slots.reset(px.syms, idx.refs)
	maxVisits := opts.MaxBlockVisits
	if maxVisits <= 0 {
		maxVisits = 200*len(idx.Graph.Blocks) + 2000
	}
	return &analyzer{
		transfer: transfer{m: m, opts: opts, syms: px.syms, methodIndex: idx,
			slots: &ws.slots, simBuffers: &ws.sim},
		ws:        ws,
		entry:     make([]*state, len(idx.Graph.Blocks)),
		maxVisits: maxVisits,
		ctx:       ctx,
	}
}

// initialState builds the method-entry state of §2.3 / §3.4.
func (a *analyzer) initialState() *state {
	s := newState(a.slots, a.m.NumSlots())
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
			if !(a.m.Ctor && i == 0) && a.rec == nil {
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

// reset empties the worklist for a graph with the given RPO indexes.
func (w *rpoWorklist) reset(rpoIndex []int) {
	w.prio = rpoIndex
	w.heap = w.heap[:0]
	w.inWork = resized(w.inWork, len(rpoIndex))
	clear(w.inWork)
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

// doneCheckInterval spaces out the fixed point's polls of the caller's
// context: one look at its Done channel before the first block visit and
// one per this many visits after, so a context already done when a fixed
// point starts stops it before any work.
const doneCheckInterval = 32

// isJoin reports whether block id's entry is a join of several states. The
// entry block's always is, whatever its predecessors: the initial state
// flows into it too, so a loop header at pc 0 with a single back edge
// merges that edge with the method entry rather than taking its state.
func (a *analyzer) isJoin(id int) bool {
	return id == 0 || len(a.Graph.Blocks[id].Preds) != 1
}

// fixpoint iterates blocks to a fixed point in RPO priority order. A
// non-DegradeNone return means a budget was exhausted and the method must
// degrade to the conservative result.
//
// Only joins keep entry states. A single-predecessor block's entry is
// exactly its predecessor's out state: re-merging it with its own stale
// entry would degrade stride variables to ⊤ (merging i=0 from the first
// pass with i=v from the head's fixed point), so joins happen only at real
// join points. When the out state reaches such a block, a block already
// pending takes it over its pending state, and any other takes a copy in a
// free workspace state and is pushed; popping the block returns that
// state. With no old entry to compare against, a block whose predecessor
// ran again is re-visited even when its entry did not change.
func (a *analyzer) fixpoint() DegradeReason {
	ws := a.ws
	n := len(a.Graph.Blocks)
	joins := 0
	for id := range n {
		if a.isJoin(id) {
			joins++
		}
	}
	ws.pending = resized(ws.pending, n)
	clear(ws.pending)
	ws.reached = resized(ws.reached, n)
	clear(ws.reached)
	ws.free = append(ws.free[:0], ws.extra...)
	a.entry[0] = a.initialState()
	ws.reached[0] = true
	work := &ws.work
	work.reset(a.Graph.RPOIndex())
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
		if a.visits%doneCheckInterval == 1 {
			select {
			case <-a.ctx.Done():
				return stopReason(a.ctx.Err())
			default:
			}
		}
		out := &ws.scratch
		if a.isJoin(id) {
			out.copyFrom(a.entry[id])
		} else {
			in := ws.pending[id]
			out.copyFrom(in)
			ws.pending[id] = nil
			ws.free = append(ws.free, in)
		}
		targets := a.simulate(out, a.Graph.Blocks[id], nil)
		if a.opts.MaxStateSize > 0 && out.footprint() > a.opts.MaxStateSize {
			return DegradeStateSize
		}
		a.everNL = a.everNL.Union(out.nl)
		for _, tgt := range targets {
			ws.reached[tgt] = true
			switch cur := a.entry[tgt]; {
			case !a.isJoin(tgt):
				if p := ws.pending[tgt]; p != nil {
					p.copyFrom(out)
				} else {
					ws.pending[tgt] = ws.copyOf(out)
					work.push(tgt)
				}
			case cur == nil:
				// Every join but the entry is first reached at most once.
				a.entry[tgt] = a.slab.newEntry(out, joins-1)
				work.push(tgt)
			default:
				spare := &ws.spare
				changed := mergeStates(spare, cur, out, &a.namer, a.opts.NoStrideInference)
				cur.copyFrom(spare)
				if changed {
					work.push(tgt)
				}
			}
		}
	}
}

// judge performs the final pass: with fixed-point entry states, it
// re-simulates every reachable block, and the transfer functions record
// what each store site earned ("the last such judgment (at the fixed point
// of the analysis) is correct", §2.4).
func (a *analyzer) judge() judgment {
	j := judgment{verdicts: make([]bytecode.Verdict, len(a.m.Code))}
	// Visit blocks in reverse postorder so that a single-predecessor
	// block continues its predecessor's judge-pass state and rearrangement
	// tracker — the fixed point kept no entry for it — and a join starts
	// from a copy of its entry. Swaps routinely straddle the conditional
	// guard and its then-block, and straight-line flow preserves the value
	// identities the detector relies on.
	//
	// outs[id].st is block id's out state while outs[id].conts
	// single-predecessor successors have yet to continue from it; the last
	// of them takes the state over instead of copying it, and a state
	// nobody continues from goes back to the free list. Every state is the
	// workspace's: the fixed point's two buffers and the extra states
	// earlier passes made start the list.
	ws := a.ws
	outs := resized(ws.outs, len(a.Graph.Blocks))
	clear(outs)
	ws.free = append(ws.free[:0], &ws.scratch, &ws.spare)
	ws.free = append(ws.free, ws.extra...)
	var trackers []*rearrangeTracker
	if a.opts.Rearrange {
		trackers = make([]*rearrangeTracker, len(a.Graph.Blocks))
	}
	for _, id := range a.Graph.ReversePostorder() {
		if !ws.reached[id] {
			continue
		}
		b := a.Graph.Blocks[id]
		for _, succ := range b.Succs {
			if !a.isJoin(succ) {
				outs[id].conts++
			}
		}
		var st *state
		a.rt = nil
		if a.isJoin(id) {
			st = ws.copyOf(a.entry[id])
		} else {
			p := &outs[b.Preds[0]]
			if a.opts.Rearrange && trackers[b.Preds[0]] != nil {
				a.rt = trackers[b.Preds[0]].fork()
			}
			if p.conts--; p.conts == 0 {
				st, p.st = p.st, nil
			} else {
				st = ws.copyOf(p.st)
			}
		}
		if a.opts.Rearrange && a.rt == nil {
			a.rt = newRearrangeTracker()
		}
		if a.rt != nil {
			st.ann = &a.rt.ann
		}
		a.simulate(st, b, &j)
		st.ann = nil
		if outs[id].conts > 0 {
			outs[id].st = st
		} else {
			ws.free = append(ws.free, st)
		}
		if a.rt != nil {
			a.rt.detectSwaps(&j)
			trackers[id] = a.rt
			a.rt = nil
		}
	}
	ws.outs = outs
	return j
}

// judgeOut is a block's entry in the judge pass's bookkeeping: its out
// state, while conts single-predecessor successors have yet to continue
// from it.
type judgeOut struct {
	st    *state
	conts int
}
