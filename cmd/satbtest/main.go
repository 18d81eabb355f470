// Command satbtest is the metamorphic conformance harness front-end: it
// generates campaign program corpora (progen with every idiom knob on),
// checks each program against the property library (engine / barrier-mode
// / inline invariance, the runtime elision oracle, dead-store logged-
// barrier monotonicity, independent-statement reordering), shrinks every
// counterexample to a minimal repro, and emits replayable artifacts.
//
// Modes (exactly one):
//
//	satbtest -campaign [-seeds N] [-base N] [-budget 2m] [-out DIR] [-json FILE]
//	satbtest -seed N          replay one generator seed through the properties
//	satbtest -repro FILE.mj   replay a shrunk counterexample source file
//
// Exit status: 0 clean, 1 counterexamples found (or an internal error), 2
// usage. The harness is validated end to end by mutants, not by flags:
// internal/mutants builds this command with `go build -overlay` over a
// deliberately broken analysis file, and a campaign of that binary MUST
// fail with a small repro. No build of the command itself can plant a
// soundness bug.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"satbelim/internal/cli"
	"satbelim/internal/core"
	"satbelim/internal/metatest"
	"satbelim/internal/progen"
	"satbelim/internal/report"
)

func main() {
	campaign := flag.Bool("campaign", false, "run a generator campaign over consecutive seeds")
	seeds := flag.Int("seeds", 250, "number of campaign seeds")
	base := flag.Int64("base", 0, "first campaign seed")
	seed := flag.Int64("seed", -1, "replay one generator seed (exclusive with -campaign/-repro)")
	repro := flag.String("repro", "", "replay a counterexample source file")
	props := flag.String("props", "", "comma-separated property subset (default all: "+
		strings.Join(metatest.PropertyNames(), ",")+")")
	budget := flag.Duration("budget", 0, "campaign wall-clock budget (0 = unlimited)")
	outDir := flag.String("out", "", "directory for repro artifacts (created if missing)")
	jsonPath := flag.String("json", "", "write the campaign summary as versioned JSON to this file")
	mode := flag.String("mode", "A", "analysis mode: B, F, or A")
	nullOrSame := flag.Bool("nullorsame", false, "enable the null-or-same extension")
	maxFailures := flag.Int("max-failures", 10, "stop the campaign after this many failures")
	interproc := flag.Bool("interproc", false, "enable interprocedural method summaries")
	var ob cli.Obs
	ob.RegisterFlags()
	flag.Parse()

	modes := 0
	for _, on := range []bool{*campaign, *seed >= 0, *repro != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: satbtest -campaign [-seeds N] | satbtest -seed N | satbtest -repro FILE.mj")
		flag.PrintDefaults()
		os.Exit(2)
	}

	am, err := core.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	analysis := core.Options{Mode: am, NullOrSame: *nullOrSame, Interprocedural: *interproc}
	var propNames []string
	if *props != "" {
		propNames = strings.Split(*props, ",")
	}

	ob.Start()
	failed := false
	switch {
	case *repro != "":
		data, err := os.ReadFile(*repro)
		if err != nil {
			fatal(err)
		}
		vs, err := metatest.CheckSource(string(data), analysis, propNames)
		if err != nil {
			fatal(err)
		}
		failed = reportViolations(*repro, vs)
	case *seed >= 0:
		src, vs, err := metatest.ReplaySeed(*seed, progen.Config{}, analysis, propNames)
		if err != nil {
			fatal(err)
		}
		if len(vs) > 0 && *outDir != "" {
			if path, werr := writeArtifact(*outDir, fmt.Sprintf("seed%d.mj", *seed), src); werr != nil {
				fatal(werr)
			} else {
				fmt.Printf("wrote %s\n", path)
			}
		}
		failed = reportViolations(fmt.Sprintf("seed %d", *seed), vs)
	default:
		failed = runCampaign(metatest.Options{
			Base:        *base,
			Seeds:       *seeds,
			Analysis:    analysis,
			Props:       propNames,
			Budget:      *budget,
			MaxFailures: *maxFailures,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "satbtest: "+format+"\n", args...)
			},
		}, *outDir, *jsonPath)
	}
	if err := ob.Finish("satbtest"); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// runCampaign executes the campaign, writes artifacts and the JSON
// document, and reports whether any counterexample was found.
func runCampaign(opts metatest.Options, outDir, jsonPath string) bool {
	res, err := metatest.RunCampaign(opts)
	if err != nil {
		fatal(err)
	}
	summary := &report.CampaignSummary{
		BaseSeed:        opts.Base,
		SeedsRun:        res.SeedsRun,
		Checks:          res.Checks,
		Properties:      opts.Props,
		BudgetExhausted: res.BudgetExhausted,
		ElapsedNs:       res.Elapsed.Nanoseconds(),
	}
	if summary.Properties == nil {
		summary.Properties = metatest.PropertyNames()
	}
	for _, f := range res.Failures {
		cf := report.CampaignFailure{
			Seed:         f.Seed,
			Property:     f.Property,
			Message:      f.Message,
			ReproLines:   f.ReproLines,
			ShrinkChecks: f.ShrinkChecks,
			Repro:        f.Repro,
		}
		if outDir != "" {
			name := fmt.Sprintf("seed%d-%s.mj", f.Seed, f.Property)
			path, err := writeArtifact(outDir, name, f.Repro)
			if err != nil {
				fatal(err)
			}
			if _, err := writeArtifact(outDir, fmt.Sprintf("seed%d-%s-full.mj", f.Seed, f.Property), f.Source); err != nil {
				fatal(err)
			}
			cf.ReproFile = path
		}
		summary.Failures = append(summary.Failures, cf)
		fmt.Printf("FAIL seed %d %s: %s\n  repro (%d lines, replay with: satbtest -repro %s):\n%s\n",
			f.Seed, f.Property, f.Message, f.ReproLines,
			orStdin(cf.ReproFile), indent(f.Repro))
	}
	status := "clean"
	if len(res.Failures) > 0 {
		status = fmt.Sprintf("%d FAILURES", len(res.Failures))
	}
	suffix := ""
	if res.BudgetExhausted {
		suffix = " (budget exhausted)"
	}
	fmt.Printf("campaign: %s — %d seeds, %d property checks in %v%s\n",
		status, res.SeedsRun, res.Checks, res.Elapsed.Round(1e6), suffix)

	if jsonPath != "" {
		doc := report.NewDocument("satbtest")
		doc.Campaign = summary
		if err := cli.WriteDocument(jsonPath, doc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "satbtest: wrote %s\n", jsonPath)
	}
	return len(res.Failures) > 0
}

// reportViolations prints replay findings; true means some property
// failed.
func reportViolations(what string, vs []*metatest.Violation) bool {
	if len(vs) == 0 {
		fmt.Printf("%s: all properties hold\n", what)
		return false
	}
	for _, v := range vs {
		fmt.Printf("FAIL %s %s: %s\n", what, v.Prop, v.Msg)
	}
	return true
}

// writeArtifact writes content under dir (created if missing), returning
// the file path.
func writeArtifact(dir, name, content string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + name
	if err := cli.WriteFileAtomic(path, []byte(content)); err != nil {
		return "", err
	}
	return path, nil
}

func orStdin(path string) string {
	if path == "" {
		return "FILE.mj"
	}
	return path
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbtest:", err)
	os.Exit(1)
}
