package report

import (
	"fmt"
	"strings"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// OracleRow is one (workload, analysis config) soundness-oracle run:
// every elided store executed under concurrent SATB marking with the
// runtime elision oracle validating the overwritten-slot-is-null and
// target-is-thread-local claims.
type OracleRow struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Limit    int    `json:"inline_limit"`
	// Checks counts elided-store executions the oracle validated.
	Checks int64 `json:"elision_checks"`
	// Violation is the soundness violation, if any ("" when clean).
	Violation string `json:"violation,omitempty"`
	// Degraded lists methods whose analysis bailed out to all-barriers.
	Degraded []string `json:"degraded,omitempty"`
}

// Clean reports whether the run validated with no violation.
func (r OracleRow) Clean() bool { return r.Violation == "" }

// oracleConfigs are the analysis configurations the soundness sweep
// covers: the paper's A mode plus every extension that adds elisions.
var oracleConfigs = []struct {
	Name string
	Opts core.Options
}{
	{"A", core.Options{Mode: core.ModeFieldArray}},
	{"A+nos", core.Options{Mode: core.ModeFieldArray, NullOrSame: true}},
	{"A+nos+rearr", core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}},
	{"A+ip", core.Options{Mode: core.ModeFieldArray, Interprocedural: true}},
}

// Oracle runs every workload under every oracle configuration at the
// given inline limit with Config.CheckElisions set. A violation is
// reported in the row rather than returned as an error, so a sweep
// always yields the full matrix; callers that want hard failure (e.g.
// satbbench -strict) check Clean() per row.
func Oracle(inlineLimit int) ([]OracleRow, error) {
	var rows []OracleRow
	for _, w := range workloads.All() {
		for _, cfg := range oracleConfigs {
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: inlineLimit,
				Analysis:    cfg.Opts,
				Runtime: vm.Config{
					Barrier:            satb.ModeConditional,
					GC:                 vm.GCSATB,
					TriggerEveryAllocs: 256,
					CheckInvariant:     true,
					CheckElisions:      true,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("oracle %s/%s: %w", w.Name, cfg.Name, err)
			}
			row := OracleRow{Workload: w.Name, Config: cfg.Name, Limit: inlineLimit}
			for _, m := range b.Report.Degraded() {
				row.Degraded = append(row.Degraded,
					fmt.Sprintf("%s (%s)", m.Method.QualifiedName(), m.Degraded))
			}
			res, err := b.Exec()
			if err != nil {
				row.Violation = err.Error()
			} else {
				row.Checks = res.ElisionChecks
				if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
					row.Violation = fmt.Sprintf("unsound sites %v", s.UnsoundSites)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatOracle renders the soundness sweep.
func FormatOracle(rows []OracleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Soundness oracle (elided stores validated at runtime)\n")
	fmt.Fprintf(&b, "%-7s %-12s %6s %12s  %s\n", "bench", "config", "limit", "checks", "status")
	for _, r := range rows {
		status := "ok"
		if !r.Clean() {
			status = "VIOLATION: " + r.Violation
		}
		if len(r.Degraded) > 0 {
			status += fmt.Sprintf(" [degraded: %s]", strings.Join(r.Degraded, ", "))
		}
		fmt.Fprintf(&b, "%-7s %-12s %6d %12d  %s\n", r.Workload, r.Config, r.Limit, r.Checks, status)
	}
	return b.String()
}
