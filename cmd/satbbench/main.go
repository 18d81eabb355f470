// Command satbbench regenerates the paper's evaluation artifacts over the
// built-in workload suite: Table 1 (dynamic eliminations), Table 2 (jbb
// end-to-end barrier cost), Figure 2 (inline-limit sweep), Figure 3
// (compiled code size), the §4.3 null-or-same measurements, the
// soundness-oracle sweep (-oracle: every workload run with runtime
// validation of each elided store), and the cross-flavor
// barrier matrix (-barriers: every workload under every barrier flavor —
// conditional, always-log, yuasa, dijkstra, hybrid, card — comparing
// per-flavor elimination rates and end-to-end barrier cost).
//
// With -json FILE every computed section is additionally written as a
// versioned report.Document (e.g. BENCH_satb.json), so results can be
// compared across revisions. Timings and allocation counts are not among
// them: bench/ measures those (bash bench/run.sh). The file is written
// atomically (temp file + rename), so a crashed or interrupted run never
// leaves a truncated document behind.
//
// -trace FILE records every pipeline stage, per-method analysis span, VM
// run and GC cycle as a Chrome trace_event JSON file (open in Perfetto);
// -metrics FILE writes the aggregated span/counter rollup. Both exports
// are off by default, in which case every instrumentation hook stays on
// its zero-allocation disabled path.
//
// -strict exits nonzero if any method degraded or the oracle found a
// violation, for CI gating. The analysis budgets are structural, so a
// degradation — and the gate's verdict — does not depend on the speed of
// the machine.
//
// Usage:
//
//	satbbench -all
//	satbbench -table1 -fig3
//	satbbench -all -json BENCH_satb.json
//	satbbench -table1 -trace trace.json -metrics metrics.json
//	satbbench -strict
package main

import (
	"flag"
	"fmt"
	"os"

	"satbelim/internal/cli"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	t1 := flag.Bool("table1", false, "Table 1: dynamic barrier elimination")
	t2 := flag.Bool("table2", false, "Table 2: jbb end-to-end barrier cost")
	f2 := flag.Bool("fig2", false, "Figure 2: inline limit sweep")
	f3 := flag.Bool("fig3", false, "Figure 3: compiled code size")
	nos := flag.Bool("nullorsame", false, "§4.3 null-or-same measurements")
	rearr := flag.Bool("rearrange", false, "§4.3 array-rearrangement measurements")
	barriers := flag.Bool("barriers", false, "cross-flavor barrier matrix (yuasa/dijkstra/hybrid/... elimination and cost per workload)")
	interp := flag.Bool("interproc", false, "escape-summary recovery at inline limit 0")
	oracle := flag.Bool("oracle", false, "soundness oracle: validate every elided store at runtime")
	inlineLimit := flag.Int("inline", report.DefaultInlineLimit, "inline limit for Table 1/2, Figure 3, oracle")
	strict := flag.Bool("strict", false, "exit nonzero if any method degraded or the oracle found a violation (implies -oracle)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file (e.g. BENCH_satb.json)")
	var ob cli.Obs
	ob.RegisterFlags()
	flag.Parse()

	if *strict {
		*oracle = true
	}
	if *all {
		*t1, *t2, *f2, *f3, *nos, *rearr, *barriers, *interp, *oracle = true, true, true, true, true, true, true, true, true
	}
	if !*t1 && !*t2 && !*f2 && !*f3 && !*nos && !*rearr && !*barriers && !*interp && !*oracle {
		fmt.Fprintln(os.Stderr, "usage: satbbench [-all] [-table1] [-table2] [-fig2] [-fig3] [-nullorsame] [-rearrange] [-barriers] [-interproc] [-oracle] [-strict] [-json FILE] [-trace FILE] [-metrics FILE]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	ob.Start()

	out := report.NewDocument("satbbench")
	out.InlineLimit = *inlineLimit

	if *t1 {
		rows, err := report.Table1(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Table1 = rows
		fmt.Println(report.FormatTable1(rows))
	}
	if *t2 {
		rows, err := report.Table2(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Table2 = rows
		fmt.Println(report.FormatTable2(rows))
	}
	if *f2 {
		points, err := report.Figure2(nil)
		if err != nil {
			fatal(err)
		}
		out.Figure2 = points
		fmt.Println(report.FormatFigure2(points))
	}
	if *f3 {
		rows, err := report.Figure3(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Figure3 = rows
		fmt.Println(report.FormatFigure3(rows))
	}
	if *nos {
		rows, err := report.NullOrSame(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.NullOrSame = rows
		fmt.Println(report.FormatNullOrSame(rows))
	}
	if *rearr {
		rows, err := report.Rearrangement(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Rearrange = rows
		fmt.Println(report.FormatRearrangement(rows))
	}
	if *barriers {
		rows, err := report.Barriers(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Barriers = rows
		fmt.Println(report.FormatBarriers(rows))
	}
	if *interp {
		rows, err := report.Interprocedural()
		if err != nil {
			fatal(err)
		}
		out.Interprocedural = rows
		fmt.Println(report.FormatInterprocedural(rows))
	}
	var oracleFailed bool
	if *oracle {
		rows, err := report.Oracle(*inlineLimit)
		if err != nil {
			fatal(err)
		}
		out.Oracle = rows
		fmt.Println(report.FormatOracle(rows))
		for _, r := range rows {
			if !r.Clean() || len(r.Degraded) > 0 {
				oracleFailed = true
			}
		}
	}

	cs := pipeline.DefaultCache.Stats()
	out.BuildCache = &cs

	if *jsonPath != "" {
		if err := cli.WriteDocument(*jsonPath, out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "satbbench: wrote %s\n", *jsonPath)
	}

	if err := ob.Finish("satbbench"); err != nil {
		fatal(err)
	}

	if *strict && oracleFailed {
		fmt.Fprintln(os.Stderr, "satbbench: -strict: oracle violations or degraded methods present")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbbench:", err)
	os.Exit(1)
}
