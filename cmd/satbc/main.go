// Command satbc is the MiniJava compiler driver: it compiles a source
// file (or a named built-in workload), runs the barrier-elision analyses,
// and prints the analysis report and optionally the annotated disassembly.
//
// -trace FILE records the compile (pipeline stages, per-method analysis
// spans) as a Chrome trace_event JSON file; -metrics FILE writes the
// aggregated counters; -json FILE writes the compile summary as a
// versioned report.Document.
//
// Usage:
//
//	satbc [-inline N] [-mode B|F|A] [-nullorsame] [-dis] file.mj
//	satbc [-flags] -workload jess
//	satbc -workload jess -trace trace.json -json compile.json
package main

import (
	"flag"
	"fmt"
	"os"

	"satbelim/internal/bytecode"
	"satbelim/internal/cli"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
)

func main() {
	inlineLimit := flag.Int("inline", 100, "inline limit in bytecode bytes (0 disables inlining)")
	mode := flag.String("mode", "A", "analysis mode: B (none), F (field), A (field+array)")
	nullOrSame := flag.Bool("nullorsame", false, "enable the §4.3 null-or-same extension")
	dis := flag.Bool("dis", false, "print annotated disassembly")
	workload := flag.String("workload", "", "compile a built-in workload instead of a file")
	jsonPath := flag.String("json", "", "write the compile summary as versioned JSON to this file")
	var ob cli.Obs
	ob.RegisterFlags()
	flag.Parse()

	name, source, err := cli.Source("satbc", *workload)
	if err != nil {
		fatal(err)
	}

	m, err := core.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}

	ob.Start()

	b, err := pipeline.Compile(name, source, pipeline.Options{
		InlineLimit: *inlineLimit,
		Analysis:    core.Options{Mode: m, NullOrSame: *nullOrSame},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("compiled %s: %d bytecode bytes, %d call sites inlined (limit %d)\n",
		name, b.BytecodeBytes, b.InlinedCalls, *inlineLimit)
	fmt.Printf("compile time: %s\n", b.FormatStageTimes())
	fmt.Printf("modeled compiled code size: %d bytes\n", b.CompiledCodeSize())
	if b.Report != nil {
		fmt.Print(b.Report.String())
	}
	if *dis {
		fmt.Println()
		fmt.Print(bytecode.DisassembleProgram(b.Program))
	}

	if *jsonPath != "" {
		doc := report.NewDocument("satbc")
		doc.InlineLimit = *inlineLimit
		doc.Compile = report.NewCompileSummary(b)
		if err := cli.WriteDocument(*jsonPath, doc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "satbc: wrote %s\n", *jsonPath)
	}
	if err := ob.Finish("satbc"); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbc:", err)
	os.Exit(1)
}
