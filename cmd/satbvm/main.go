// Command satbvm compiles and runs a MiniJava program (or built-in
// workload) on the bytecode VM with a chosen barrier mode and collector,
// printing the program output and the barrier instrumentation summary.
//
// -trace FILE records the run (compile stages, per-method analysis, VM
// threads, GC cycles) as a Chrome trace_event JSON file; -metrics FILE
// writes the aggregated counters; -json FILE writes the run summary as a
// versioned report.Document.
//
// -deadline D bounds the whole compile (pipeline.CompileCtx under a
// context with that timeout): a deadline that passes before the analysis
// fails the compile, and one that passes during it cuts the analysis
// short, which keeps every barrier of the methods concerned and reports
// each as degraded.
//
// Usage:
//
//	satbvm [-inline N] [-mode A] [-barrier conditional] [-gc satb] file.mj
//	satbvm [-flags] -workload jbb
//	satbvm -workload jbb -gc satb -trace trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"satbelim/internal/cli"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

func main() {
	inlineLimit := flag.Int("inline", 100, "inline limit in bytecode bytes")
	mode := flag.String("mode", "A", "analysis mode: B, F, or A")
	nullOrSame := flag.Bool("nullorsame", false, "enable the null-or-same extension")
	interproc := flag.Bool("interproc", false, "enable interprocedural method summaries")
	barrier := flag.String("barrier", "conditional", "barrier flavor: none, conditional, alwayslog, card, yuasa, dijkstra, hybrid")
	gcKind := flag.String("gc", "none", "collector: none, satb, inc")
	trigger := flag.Int64("gc-trigger", 200, "allocations between marking cycles")
	check := flag.Bool("check", false, "verify the SATB snapshot invariant every cycle")
	oracle := flag.Bool("oracle", false, "validate every elided store at runtime (soundness oracle)")
	deadline := flag.Duration("deadline", 0, "wall-clock bound on the whole compile (0 = unlimited); analysis cut short keeps all barriers")
	sites := flag.Bool("sites", false, "print per-site statistics")
	workload := flag.String("workload", "", "run a built-in workload instead of a file")
	engine := flag.String("engine", "fused", "execution engine: fused (pre-decoded), switch (reference interpreter), or compiled (tiered closure-threaded)")
	tierThreshold := flag.Int64("tier-threshold", 0, "compiled engine: hot-method exec count before tier-up (0 = default 64)")
	noCache := flag.Bool("nocache", false, "bypass the content-addressed build cache")
	verbose := flag.Bool("v", false, "print engine and build-cache details")
	jsonPath := flag.String("json", "", "write the run summary as versioned JSON to this file")
	var ob cli.Obs
	ob.RegisterFlags()
	flag.Parse()

	name, source, err := cli.Source("satbvm", *workload)
	if err != nil {
		fatal(err)
	}

	am, err := core.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	bm, err := satb.ParseBarrierMode(*barrier)
	if err != nil {
		fatal(err)
	}
	gk, err := vm.ParseGCKind(*gcKind)
	if err != nil {
		fatal(err)
	}
	eng, err := vm.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	ob.Start()

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	b, err := pipeline.CompileCtx(ctx, name, source, pipeline.Options{
		InlineLimit: *inlineLimit,
		Analysis: core.Options{
			Mode:            am,
			NullOrSame:      *nullOrSame,
			Interprocedural: *interproc,
		},
		Runtime: vm.Config{
			Barrier:            bm,
			GC:                 gk,
			TriggerEveryAllocs: *trigger,
			CheckInvariant:     *check,
			CheckElisions:      *oracle,
			Engine:             eng,
			TierThreshold:      *tierThreshold,
		},
		NoCache: *noCache,
	})
	if err != nil {
		fatal(err)
	}
	if b.Report != nil {
		for _, m := range b.Report.Degraded() {
			fmt.Fprintf(os.Stderr, "satbvm: %s degraded to all-barriers (%s)\n",
				m.Method.QualifiedName(), m.Degraded)
		}
	}
	res, err := b.Exec()
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Printf("engine: %s\n", res.Engine)
		if res.TierUps > 0 || res.TierDeopts > 0 {
			fmt.Printf("tier: %d methods compiled, %d deopts, %d segment executions\n",
				res.TierUps, res.TierDeopts, res.TierSegExecs)
		}
		cs := pipeline.DefaultCache.Stats()
		fmt.Printf("build cache: hit=%v (%d hits / %d misses, %d entries)\n",
			b.CacheHit, cs.Hits, cs.Misses, cs.Entries)
		fmt.Printf("compile: %s\n", b.FormatStageTimes())
	}
	if *oracle {
		fmt.Printf("oracle: %d elided stores validated\n", res.ElisionChecks)
	}

	fmt.Printf("output: %v\n", res.Output)
	fmt.Printf("instructions: %d, barrier cost: %d units, total cost: %d\n",
		res.Steps, res.Counters.Cost, res.TotalCost())
	if gk != vm.GCNone {
		fmt.Printf("gc: %d cycles, %d objects allocated, %d swept, final-pause work %d\n",
			res.Cycles, res.Allocated, res.Swept, res.FinalPauseWork)
	}
	fmt.Println(res.Counters.Summarize().String())
	if *sites {
		for _, s := range res.Counters.Sites() {
			fmt.Printf("  %v site execs=%d prenull=%d elide=%v\n", s.Kind, s.Execs, s.PreNull, s.Elide)
		}
	}

	if *jsonPath != "" {
		doc := report.NewDocument("satbvm")
		doc.InlineLimit = *inlineLimit
		doc.Run = report.NewRunSummary(name, res)
		doc.Compile = report.NewCompileSummary(b)
		if err := cli.WriteDocument(*jsonPath, doc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "satbvm: wrote %s\n", *jsonPath)
	}
	if err := ob.Finish("satbvm"); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbvm:", err)
	os.Exit(1)
}
