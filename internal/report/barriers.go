package report

import (
	"fmt"
	"strings"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// BarrierRow is one (workload, flavor) cell of the cross-flavor barrier
// matrix: how much of the analysis's elision the flavor can use, what
// the kept barriers cost end-to-end, and the insertion/deletion traffic
// it generated under its natural collector.
type BarrierRow struct {
	Workload string `json:"workload"`
	Flavor   string `json:"flavor"`
	GC       string `json:"gc"`
	// StaticKept/StaticDiscarded split the analysis's static verdicts by
	// the flavor's soundness predicate (discarded sites keep their full
	// barrier).
	StaticKept      int `json:"static_kept"`
	StaticDiscarded int `json:"static_discarded"`
	// Execs counts dynamic barrier-site executions; the Pct columns are
	// shares of Execs removed per elision kind (post-projection).
	Execs         uint64  `json:"execs"`
	ElimPct       float64 `json:"elim_pct"`
	PreNullPct    float64 `json:"pre_null_pct"`
	NullOrSamePct float64 `json:"null_or_same_pct"`
	RearrangePct  float64 `json:"rearrange_pct"`
	// Logged counts deletion-side (pre-value) log entries, Shaded
	// insertion-side (new-value) shade events, Cards dirtied cards.
	Logged uint64 `json:"logged"`
	Shaded uint64 `json:"shaded"`
	Cards  uint64 `json:"cards_dirtied,omitempty"`
	// BarrierCost is cost-model units spent in barriers; Relative is
	// throughput (steps per total cost) against the no-barrier baseline.
	BarrierCost uint64  `json:"barrier_cost"`
	TotalCost   uint64  `json:"total_cost"`
	Relative    float64 `json:"relative"`
}

// barrierMatrixFlavors pairs every flavor with its natural collector:
// the deletion-side and hybrid flavors uphold the SATB snapshot, the
// card flavor serves the incremental-update marker, and the no-barrier
// baseline runs uncollected (any marker would be unsound without a
// barrier).
func barrierMatrixFlavors() []struct {
	Mode satb.BarrierMode
	GC   vm.GCKind
} {
	return []struct {
		Mode satb.BarrierMode
		GC   vm.GCKind
	}{
		{satb.ModeNoBarrier, vm.GCNone},
		{satb.ModeConditional, vm.GCSATB},
		{satb.ModeAlwaysLog, vm.GCSATB},
		{satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeHybrid, vm.GCSATB},
		{satb.ModeCardMarking, vm.GCIncremental},
	}
}

// Barriers measures the cross-flavor matrix (the ISSUE's Table-1
// analogue): every workload × every barrier flavor, compiled once per
// workload with the full analysis (mode A + null-or-same + array
// rearrangement) and executed under the flavor's natural collector.
// Verdict projection happens in the VM, so one analysis serves all
// flavors; the snapshot invariant is verified on every snapshot-sound
// flavor.
func Barriers(inlineLimit int) ([]BarrierRow, error) {
	var rows []BarrierRow
	opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	for _, w := range workloads.All() {
		base := 0.0
		for _, fc := range barrierMatrixFlavors() {
			spec := fc.Mode.Spec()
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: inlineLimit,
				Analysis:    opts,
				Runtime: vm.Config{
					Barrier:            fc.Mode,
					GC:                 fc.GC,
					TriggerEveryAllocs: 200,
					CheckInvariant:     true, // armed only on snapshot-sound flavors
				},
			})
			if err != nil {
				return nil, fmt.Errorf("barriers %s/%s: %w", w.Name, spec.Name, err)
			}
			res, err := b.Exec()
			if err != nil {
				return nil, fmt.Errorf("barriers %s/%s: %w", w.Name, spec.Name, err)
			}
			s := res.Counters.Summarize()
			if len(s.UnsoundSites) > 0 {
				return nil, fmt.Errorf("barriers %s/%s: unsound elisions %v", w.Name, spec.Name, s.UnsoundSites)
			}
			fv := core.FlavorSiteVerdicts(b.Program, spec)
			tp := 1000 * float64(res.Steps) / float64(res.TotalCost())
			if fc.Mode == satb.ModeNoBarrier {
				base = tp
			}
			elided := s.ElidedExecs + s.NullOrSameExecs + s.RearrangeExecs
			rows = append(rows, BarrierRow{
				Workload:        w.Name,
				Flavor:          spec.Name,
				GC:              fc.GC.String(),
				StaticKept:      fv.Kept,
				StaticDiscarded: fv.Discarded,
				Execs:           s.TotalExecs,
				ElimPct:         num.Pct(elided, s.TotalExecs),
				PreNullPct:      num.Pct(s.ElidedExecs, s.TotalExecs),
				NullOrSamePct:   num.Pct(s.NullOrSameExecs, s.TotalExecs),
				RearrangePct:    num.Pct(s.RearrangeExecs, s.TotalExecs),
				Logged:          res.Counters.Logged,
				Shaded:          res.Counters.Shaded,
				Cards:           res.Counters.CardsDirtied,
				BarrierCost:     res.Counters.Cost,
				TotalCost:       res.TotalCost(),
				Relative:        tp / base,
			})
		}
	}
	return rows, nil
}

// FormatBarriers renders the cross-flavor matrix grouped by workload.
func FormatBarriers(rows []BarrierRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Barrier-flavor matrix: elimination and end-to-end cost per flavor\n")
	fmt.Fprintf(&b, "%-7s %-12s %-5s %10s %7s %7s %7s %7s %9s %9s %8s %11s %9s\n",
		"bench", "flavor", "gc", "execs", "% elim", "% pnull", "% nos", "% rearr",
		"logged", "shaded", "cards", "cost", "relative")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			fmt.Fprintln(&b)
		}
		last = r.Workload
		fmt.Fprintf(&b, "%-7s %-12s %-5s %10d %7.1f %7.1f %7.1f %7.1f %9d %9d %8d %11d %9.3f\n",
			r.Workload, r.Flavor, r.GC, r.Execs,
			r.ElimPct, r.PreNullPct, r.NullOrSamePct, r.RearrangePct,
			r.Logged, r.Shaded, r.Cards, r.BarrierCost, r.Relative)
	}
	return b.String()
}
