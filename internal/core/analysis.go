// Package core iterates the abstract domain of internal/domain to the
// paper's barrier-elision verdicts: the fixed point with its budgets, the
// judging pass, the summaries' schedule, the judges' fan-out, the reports
// and the per-flavor projection.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"

	"satbelim/internal/bytecode"
	"satbelim/internal/domain"
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
	Summaries domain.Summaries
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
	// DegradeNotInductive: the judging pass found an edge along which the
	// fixed point's states are not closed — the initial state, or a
	// block's out state, still changes the join it flows into — so what it
	// would judge is no fixed point. The edge is in MethodReport.DegradeDetail.
	DegradeNotInductive DegradeReason = "not-inductive"
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
	t     domain.Transfer
	graph *bytecode.Graph
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
	entry []*domain.State
	slab  domain.EntrySlab
	// init is the state the fixed point started from: entry[0] until an
	// edge into block 0 is first joined into it, a copy in a workspace
	// state after.
	init *domain.State

	visits    int
	maxVisits int
	// maxState bounds an out state's Footprint (0: no bound).
	maxState int
	// ctx is the caller's context; its Done channel is polled every
	// doneCheckInterval block visits.
	ctx context.Context
	// resimulate says the judge's own states are not the fixed point's:
	// under Config.Rearrange a judged load freshens an unknown integer
	// local for the swap detector, and that symbol flows into the block's
	// out state. The judge then checks its edges on a second chain of
	// states, simulated as the fixed point simulates.
	resimulate bool
}

// workspace is what one analysis worker reuses from method to method: the
// buffers whose lifetime ends with a method's analysis — the domain's (the
// slot table, simulate's successor and argument buffers), the fixed point's
// scratch and spare states, its worklist, its pending single-predecessor
// entries and its reached row, and the judge pass's per-block bookkeeping —
// and the states both passes take from and return to the free list. Each
// judging worker of one AnalyzeProgramCtx call owns one, as do a serial run
// and computeSummaries, and newAnalyzer, fixpoint and judge re-initialise
// what they use, so no result depends on what the workspace analyzed before.
// Join entry states are not here: each belongs to its method (EntrySlab,
// InitialState), and no workspace state ever becomes one.
type workspace struct {
	dom            domain.Buffers
	scratch, spare domain.State
	work           rpoWorklist
	// pending[id] is single-predecessor block id's entry state while the
	// block is on the worklist, nil otherwise; reached[id] says whether the
	// fixed point reached block id at all.
	pending []*domain.State
	reached []bool
	outs    []judgeOut
	free    []*domain.State
	// extra holds the states beyond scratch and spare: the fixed point's
	// pending entries and the judge pass's out states.
	extra []*domain.State
}

func newWorkspace() *workspace { return &workspace{} }

// copyOf returns a copy of src in a state off the free list, or in a new
// one of the worker's when the list is empty.
func (ws *workspace) copyOf(src *domain.State) *domain.State {
	var st *domain.State
	if n := len(ws.free); n > 0 {
		st, ws.free = ws.free[n-1], ws.free[:n-1]
	} else {
		st = new(domain.State)
		ws.extra = append(ws.extra, st)
	}
	st.CopyFrom(src)
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
	publish(px.syms, idx.Body, verdicts, rep)
	if lane != "" {
		sp.EndArgs(
			obs.KV{K: "block_visits", V: int64(rep.BlockVisits)},
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
	var sums domain.Summaries
	if opts.Interprocedural {
		sums = opts.Summaries
	}
	a := newAnalyzer(ctx, px, ws, idx, opts, sums, false)
	rep.AbstractRefs = idx.refs.Judged()

	rep.Degraded = a.fixpoint()
	rep.BlockVisits = a.visits
	if rep.Degraded != DegradeNone {
		return nil
	}
	j, bad := a.judge()
	if bad != "" {
		rep.Degraded, rep.DegradeDetail = DegradeNotInductive, bad
		return nil
	}
	verdicts, rep.SummaryCalls, rep.FreshReturns = j.Result()
	return verdicts
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
// on ws: the domain's transfer functions over the workspace's buffers,
// reading the callee summaries sums and, with summarize, in summary mode;
// and what stops its fixed point: the state-size budget
// (opts.MaxStateSize), the visit budget (opts.MaxBlockVisits, else a
// default sized by the method) and ctx. Judging and summarizing both start
// here, so both stop for the same reasons.
func newAnalyzer(ctx context.Context, px *programIndex, ws *workspace, idx methodIndex, opts Options, sums domain.Summaries, summarize bool) *analyzer {
	maxVisits := opts.MaxBlockVisits
	if maxVisits <= 0 {
		maxVisits = 200*len(idx.Graph.Blocks) + 2000
	}
	return &analyzer{
		t:          domain.NewTransfer(&ws.dom, px.syms, idx.Body, idx.refs, px.cfg, sums, summarize),
		graph:      idx.Graph,
		ws:         ws,
		entry:      make([]*domain.State, len(idx.Graph.Blocks)),
		maxVisits:  maxVisits,
		maxState:   opts.MaxStateSize,
		ctx:        ctx,
		resimulate: opts.Rearrange,
	}
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
	return id == 0 || len(a.graph.Blocks[id].Preds) != 1
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
	n := len(a.graph.Blocks)
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
	a.entry[0] = a.t.InitialState()
	a.init = a.entry[0]
	ws.reached[0] = true
	work := &ws.work
	work.reset(a.graph.RPOIndex())
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
			out.CopyFrom(a.entry[id])
		} else {
			in := ws.pending[id]
			out.CopyFrom(in)
			ws.pending[id] = nil
			ws.free = append(ws.free, in)
		}
		targets := a.t.Step(out, id)
		if a.maxState > 0 && out.Footprint() > a.maxState {
			return DegradeStateSize
		}
		for _, tgt := range targets {
			ws.reached[tgt] = true
			switch cur := a.entry[tgt]; {
			case !a.isJoin(tgt):
				if p := ws.pending[tgt]; p != nil {
					p.CopyFrom(out)
				} else {
					ws.pending[tgt] = ws.copyOf(out)
					work.push(tgt)
				}
			case cur == nil:
				// Every join but the entry is first reached at most once.
				a.entry[tgt] = a.slab.NewEntry(out, joins-1)
				work.push(tgt)
			default:
				if cur == a.init {
					a.init = ws.copyOf(cur)
				}
				spare := &ws.spare
				changed := a.t.Join(spare, cur, out)
				cur.CopyFrom(spare)
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
// of the analysis) is correct", §2.4). It also checks that the states it
// judges are a fixed point: that joining the initial state into block 0's
// entry, and each block's out state into every join it flows into, changes
// nothing. The first edge that fails is described in bad, and the
// method's verdicts must not be published.
func (a *analyzer) judge() (j domain.Judgment, bad string) {
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
	// nobody continues from goes back to the free list. outs[id].fp is the
	// same for the fixed point's own out state when a.resimulate. Every
	// state is the workspace's: the fixed point's scratch buffer and the
	// extra states earlier passes made start the list, and its spare buffer
	// is where the checks join.
	ws := a.ws
	check := &ws.spare
	if a.t.Join(check, a.entry[0], a.init) {
		return j, "the initial state does not lie in block 0's entry"
	}
	outs := resized(ws.outs, len(a.graph.Blocks))
	clear(outs)
	ws.outs = outs
	ws.free = append(ws.free[:0], &ws.scratch)
	ws.free = append(ws.free, ws.extra...)
	for _, id := range a.graph.ReversePostorder() {
		if !ws.reached[id] {
			continue
		}
		b := a.graph.Blocks[id]
		for _, succ := range b.Succs {
			if !a.isJoin(succ) {
				outs[id].conts++
			}
		}
		var st, fp *domain.State
		from := -1
		if a.isJoin(id) {
			st = ws.copyOf(a.entry[id])
			if a.resimulate {
				fp = ws.copyOf(a.entry[id])
			}
		} else {
			from = b.Preds[0]
			p := &outs[from]
			if p.conts--; p.conts == 0 {
				st, p.st = p.st, nil
				fp, p.fp = p.fp, nil
			} else {
				st = ws.copyOf(p.st)
				if a.resimulate {
					fp = ws.copyOf(p.fp)
				}
			}
		}
		a.t.Judge(&j, st, id, from)
		out := st
		if a.resimulate {
			a.t.Step(fp, id)
			out = fp
		}
		for _, succ := range b.Succs {
			if a.isJoin(succ) && a.t.Join(check, a.entry[succ], out) {
				return j, fmt.Sprintf("block %d's out state does not lie in the entry of block %d", id, succ)
			}
		}
		if outs[id].conts > 0 {
			outs[id].st, outs[id].fp = st, fp
		} else {
			ws.free = append(ws.free, st)
			if fp != nil {
				ws.free = append(ws.free, fp)
			}
		}
	}
	return j, ""
}

// resized returns vs with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](vs []T, n int) []T { return slices.Grow(vs[:0], n)[:n] }

// judgeOut is a block's entry in the judge pass's bookkeeping: its out
// state (and, when the judge re-simulates, the fixed point's), while conts
// single-predecessor successors have yet to continue from it.
type judgeOut struct {
	st, fp *domain.State
	conts  int
}
