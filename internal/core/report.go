package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"satbelim/internal/bytecode"
	"satbelim/internal/num"
	"satbelim/internal/obs"
)

// ProgramReport aggregates per-method analysis reports. It is a function
// of the program and the options, unless some method's Degraded reason is
// TimeDriven: the caller's context cut the analysis short. The time the
// analysis took is its caller's to measure (pipeline.Build.AnalysisTime).
type ProgramReport struct {
	Methods []*MethodReport
}

// AnalyzeProgram is AnalyzeProgramCtx without a caller context, fanned
// across GOMAXPROCS goroutines.
func AnalyzeProgram(p *bytecode.Program, opts Options) (*ProgramReport, error) {
	return AnalyzeProgramCtx(context.Background(), p, opts, 0)
}

// AnalyzeProgramCtx analyzes every method of the program and installs what
// it proved as the program's verdict table (SetVerdicts), in one store
// after every method is judged, so that a VM of the program runs either
// the old table or the new one (workers <= 0 means GOMAXPROCS). The analysis
// is intra-procedural after inlining, so methods are independent: each
// worker claims methods off a shared counter, and reports land in
// p.Methods() order regardless of completion order — the report and the
// verdicts are bit-identical to a sequential run. Interprocedural
// summaries, when requested, are computed up front on the calling goroutine
// over the condensed callgraph (bottom-up SCC order; see
// bytecode/callgraph.go) and are read-only during the fan-out, which is the
// only place a build runs goroutines. Every fixed
// point, summarizing or judging, observes the end of ctx at block-visit
// boundaries and degrades soundly rather than erroring — a summary to the
// worst case, a method to all barriers with the reason ctx.Err() gives
// (DegradeDeadline or DegradeCancelled) — so a cut-short compile still
// yields a correct program whose report says exactly which methods were
// cut short.
func AnalyzeProgramCtx(ctx context.Context, p *bytecode.Program, opts Options, workers int) (*ProgramReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	methods := p.Methods()
	// One graph, operand-number row and reference table per method:
	// summarizeMethod builds them, judging reads them or, for a method never
	// summarized, builds its own.
	px := newProgramIndex(p, opts)
	if opts.Interprocedural && opts.Summaries == nil {
		opts.Summaries = computeSummaries(ctx, px, opts)
	}
	if workers > len(methods) {
		workers = len(methods)
	}
	reps := make([]*MethodReport, len(methods))
	rows := make([][]bytecode.Verdict, len(methods))
	errs := make([]error, len(methods))
	if workers <= 1 {
		lane, ws := analysisLane(0), newWorkspace()
		for i := range methods {
			reps[i], rows[i], errs[i] = analyzeMethod(ctx, px, ws, i, opts, lane)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lane, ws := analysisLane(w), newWorkspace()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(methods) {
						return
					}
					reps[i], rows[i], errs[i] = analyzeMethod(ctx, px, ws, i, opts, lane)
				}
			}(w)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			// First failing method in program order, so the reported
			// error does not depend on scheduling.
			return nil, fmt.Errorf("%s: %w", methods[i].QualifiedName(), err)
		}
	}
	p.SetVerdicts(rows)
	return &ProgramReport{Methods: reps}, nil
}

// analysisLane names a worker's observability lane ("" when tracing is
// disabled, so the disabled path never formats a string).
func analysisLane(worker int) string {
	if !obs.Enabled() {
		return ""
	}
	return fmt.Sprintf("analysis/w%d", worker)
}

// BlockVisits sums the fixed-point block visits across methods — the
// worklist-scheduling cost metric (RPO ordering exists to shrink it).
func (r *ProgramReport) BlockVisits() int {
	n := 0
	for _, m := range r.Methods {
		n += m.BlockVisits
	}
	return n
}

// Degraded returns the methods whose analysis bailed out to the
// conservative all-barriers result, in program order.
func (r *ProgramReport) Degraded() []*MethodReport {
	var out []*MethodReport
	for _, m := range r.Methods {
		if m.Degraded != DegradeNone {
			out = append(out, m)
		}
	}
	return out
}

// Totals sums the static site counts.
func (r *ProgramReport) Totals() (fieldSites, arraySites, fieldElided, arrayElided, nullOrSame int) {
	for _, m := range r.Methods {
		fieldSites += m.FieldSites
		arraySites += m.ArraySites
		fieldElided += m.FieldElided
		arrayElided += m.ArrayElided
		nullOrSame += m.NullOrSame
	}
	return
}

// String renders a static-elimination summary.
func (r *ProgramReport) String() string {
	fs, as, fe, ae, nos := r.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "static barrier sites: %d field, %d array\n", fs, as)
	fmt.Fprintf(&b, "statically elided:    %d field (%.1f%%), %d array (%.1f%%)",
		fe, num.Pct(fe, fs), ae, num.Pct(ae, as))
	if nos > 0 {
		fmt.Fprintf(&b, ", %d null-or-same", nos)
	}
	fmt.Fprintf(&b, "\nblock visits: %d\n", r.BlockVisits())
	var nc []string
	for _, m := range r.Degraded() {
		nc = append(nc, fmt.Sprintf("%s (%s)", m.Method.QualifiedName(), m.Degraded))
	}
	if len(nc) > 0 {
		sort.Strings(nc)
		fmt.Fprintf(&b, "degraded to all-barriers: %s\n", strings.Join(nc, ", "))
	}
	return b.String()
}
