package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"satbelim/internal/report"
)

var matrix = flag.Bool("mutants.matrix", false,
	"run TestMutantMatrix: every row against every validation layer, written to mutant-matrix.json")

// campaignSeeds is how many generator seeds the campaign column runs.
const campaignSeeds = 40

// row is one mutant: the module-relative file, an original text that
// occurs in it exactly once, and what replaces it.
type row struct {
	name, file       string
	original, mutant string
	rationale        string
	killers          []check
	campaign         *campaign // nil: the campaign is no declared killer
}

// check selects the top-level tests of the module-relative package pkg
// whose names match run. It kills a mutant when one of them fails with
// want in its output, so that a killer declared for an oracle violation
// does not pass on a panic.
type check struct{ pkg, run, want string }

// campaign declares the metamorphic campaign a killer: satbtest built over
// the mutant and run with args must find a counterexample within
// campaignSeeds seeds and shrink it to at most maxRepro lines.
type campaign struct {
	args     []string
	maxRepro int
}

// layer is one validation layer of the wide matrix.
type layer struct {
	name   string
	checks []check
}

// env is where the harness finds the go command and the module.
type env struct{ goBin, root, module string }

// newEnv finds the go command of the toolchain running the test and the
// module two directories up. A missing go command fails the test: the
// mutants are part of tier-1, not an optional extra.
func newEnv(t *testing.T) env {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Fatalf("no go command at GOROOT/bin/go: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	module, ok := strings.CutPrefix(first, "module ")
	if !ok {
		t.Fatalf("go.mod does not start with its module line: %q", first)
	}
	return env{goBin: goBin, root: root, module: strings.TrimSpace(module)}
}

// overlay writes r's mutated file and the `-overlay` JSON substituting it
// under dir, and returns the JSON's path. It reads the source and starts
// no process, so a row whose original text is stale fails before any go
// command runs.
func (e env) overlay(r row, dir string) (string, error) {
	path := filepath.Join(e.root, r.file)
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if n := strings.Count(string(src), r.original); n != 1 {
		return "", fmt.Errorf("mutant %s: its original text occurs %d times in %s, want once; update the row", r.name, n, r.file)
	}
	mutated := filepath.Join(dir, filepath.Base(r.file))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), r.original, r.mutant, 1)), 0o644); err != nil {
		return "", err
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		return "", err
	}
	ov := filepath.Join(dir, "overlay.json")
	return ov, os.WriteFile(ov, js, 0o644)
}

// testEvent is what the harness reads of a `go test -json` event.
type testEvent struct {
	Action, Package, Test, Output, FailedBuild string
}

// runChecks runs every check's tests in one `go test -overlay` and
// returns, per check, the failing tests that kill the mutant.
func (e env) runChecks(ov string, checks []check) ([][]string, error) {
	var runs, pkgs []string
	for _, c := range checks {
		runs = append(runs, "(?:"+c.run+")")
		if p := "./" + c.pkg; !slices.Contains(pkgs, p) {
			pkgs = append(pkgs, p)
		}
	}
	cmd := exec.Command(e.goBin, append([]string{"test", "-json", "-count=1", "-overlay", ov,
		"-run", strings.Join(runs, "|")}, pkgs...)...)
	cmd.Dir = e.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()

	type test struct{ pkg, name string }
	failed := map[test]bool{}
	output := map[test]*strings.Builder{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev testEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.FailedBuild != "" || ev.Action == "build-fail" {
			return nil, fmt.Errorf("the mutant does not build (%s):\n%s%s", ev.FailedBuild, stderr.String(), out)
		}
		if ev.Test == "" {
			continue
		}
		top, _, _ := strings.Cut(ev.Test, "/")
		k := test{ev.Package, top}
		if output[k] == nil {
			output[k] = &strings.Builder{}
		}
		output[k].WriteString(ev.Output)
		if ev.Action == "fail" && ev.Test == top {
			failed[k] = true
		}
	}
	if runErr != nil && len(failed) == 0 {
		return nil, fmt.Errorf("go test failed with no failing test: %v\n%s%s", runErr, stderr.String(), out)
	}
	kills := make([][]string, len(checks))
	for i, c := range checks {
		re := regexp.MustCompile(c.run)
		for k := range failed {
			if k.pkg == e.module+"/"+c.pkg && re.MatchString(k.name) && strings.Contains(output[k].String(), c.want) {
				kills[i] = append(kills[i], c.pkg+"."+k.name)
			}
		}
		sort.Strings(kills[i])
	}
	return kills, nil
}

// campaignRun is one overlay-built campaign's outcome.
type campaignRun struct {
	report.CampaignSummary
	// replays: the first failure's shrunk repro still fails when the
	// mutant build replays it.
	replays bool
}

// runCampaign builds cmd/satbtest over the overlay into dir and runs the
// campaignSeeds-seed campaign with args, stopping at the first failure.
func (e env) runCampaign(ov, dir string, args []string) (*campaignRun, error) {
	bin := filepath.Join(dir, "satbtest")
	build := exec.Command(e.goBin, "build", "-overlay", ov, "-o", bin, "./cmd/satbtest")
	build.Dir = e.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("the mutant does not build: %v\n%s", err, out)
	}
	js := filepath.Join(dir, "campaign.json")
	out, err := exec.Command(bin, append([]string{"-campaign", "-seeds", strconv.Itoa(campaignSeeds),
		"-max-failures", "1", "-json", js, "-out", filepath.Join(dir, "repros")}, args...)...).CombinedOutput()
	if exit := (*exec.ExitError)(nil); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("satbtest: %v\n%s", err, out)
	}
	data, rerr := os.ReadFile(js)
	if rerr != nil {
		return nil, fmt.Errorf("satbtest wrote no summary (%v):\n%s", rerr, out)
	}
	var doc report.Document
	if err := json.Unmarshal(data, &doc); err != nil || doc.Campaign == nil {
		return nil, fmt.Errorf("satbtest summary %s: no campaign (%v)", js, err)
	}
	run := &campaignRun{CampaignSummary: *doc.Campaign}
	if (err != nil) != (len(run.Failures) > 0) {
		return nil, fmt.Errorf("satbtest exit status (%v) disagrees with its %d failures:\n%s", err, len(run.Failures), out)
	}
	if len(run.Failures) > 0 {
		f := run.Failures[0]
		err := exec.Command(bin, append([]string{"-repro", f.ReproFile, "-props", f.Property}, args...)...).Run()
		exit := (*exec.ExitError)(nil)
		run.replays = errors.As(err, &exit) && exit.ExitCode() == 1
	}
	return run, nil
}

// TestMutants: every row is killed by each of its declared killers (the
// row's killers subtest), and a row with a campaign is caught by the
// overlay-built campaign with a small repro that replays (its campaign
// subtest).
func TestMutants(t *testing.T) {
	e := newEnv(t)
	ovs := make([]string, len(rows))
	for i, r := range rows {
		ov, err := e.overlay(r, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ovs[i] = ov
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Run("killers", func(t *testing.T) {
				start := time.Now()
				kills, err := e.runChecks(ovs[i], r.killers)
				if err != nil {
					t.Fatal(err)
				}
				for j, c := range r.killers {
					if len(kills[j]) == 0 {
						t.Errorf("survived its declared killer %s -run %s (wanting %q in the failure)", c.pkg, c.run, c.want)
					}
				}
				t.Logf("declared killers: %v in %v", kills, time.Since(start).Round(time.Millisecond))
			})
			if r.campaign == nil {
				return
			}
			t.Run("campaign", func(t *testing.T) {
				start := time.Now()
				c, err := e.runCampaign(ovs[i], filepath.Dir(ovs[i]), r.campaign.args)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Failures) == 0 {
					t.Fatalf("the %d-seed campaign missed it", c.SeedsRun)
				}
				f := c.Failures[0]
				t.Logf("campaign: caught by %s at seed %d in %v; %d-line repro:\n%s",
					f.Property, f.Seed, time.Since(start).Round(time.Millisecond), f.ReproLines, f.Repro)
				if f.ReproLines > r.campaign.maxRepro {
					t.Errorf("repro is %d lines, want ≤ %d", f.ReproLines, r.campaign.maxRepro)
				}
				if !c.replays {
					t.Error("the shrunk repro no longer fails when replayed")
				}
			})
		})
	}
}

// TestStaleRowsFail: a row whose original text occurs in its file zero
// times or twice is refused while its overlay is written, before any go
// command starts.
func TestStaleRowsFail(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "x.go"), []byte("a := 1\na := 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := env{root: root}
	for original, count := range map[string]string{"b := 2\n": "0 times", "a := 1\n": "2 times"} {
		_, err := stale.overlay(row{name: "stale", file: "x.go", original: original}, t.TempDir())
		if err == nil || !strings.Contains(err.Error(), count) {
			t.Errorf("original text %q: err = %v, want it to occur %s", original, err, count)
		}
	}
}

// TestEveryCheckNamesATest: every row killer and every layer check matches
// at least one top-level Test or Fuzz function of its package, read from
// the package's _test.go files without starting a go process. A renamed
// test would otherwise empty a layer of the wide matrix without a sound;
// only declared killers fail loudly.
func TestEveryCheckNamesATest(t *testing.T) {
	root := newEnv(t).root
	type owned struct {
		owner string
		check
	}
	var checks []owned
	for _, r := range rows {
		for _, c := range r.killers {
			checks = append(checks, owned{"mutant " + r.name, c})
		}
	}
	for _, l := range layers {
		for _, c := range l.checks {
			checks = append(checks, owned{"layer " + l.name, c})
		}
	}
	names := map[string][]string{}
	for _, c := range checks {
		tests, ok := names[c.pkg]
		if !ok {
			files, err := filepath.Glob(filepath.Join(root, c.pkg, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: no test files in %s (%v)", c.owner, c.pkg, err)
			}
			for _, f := range files {
				af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range af.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if ok && fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
						tests = append(tests, fd.Name.Name)
					}
				}
			}
			names[c.pkg] = tests
		}
		if !slices.ContainsFunc(tests, regexp.MustCompile(c.run).MatchString) {
			t.Errorf("%s: %s -run %s matches no test", c.owner, c.pkg, c.run)
		}
	}
}

// cell is one mutant × layer outcome of the wide matrix.
type cell struct {
	Mutant  string   `json:"mutant"`
	Layer   string   `json:"layer"`
	Killed  bool     `json:"killed"`
	Killers []string `json:"killers,omitempty"`
	Seconds float64  `json:"seconds"`
	// The campaign column: the seeds run up to the first failure, its
	// property and its shrunk repro's length.
	SeedsToKill int    `json:"seeds_to_kill,omitempty"`
	Property    string `json:"property,omitempty"`
	ReproLines  int    `json:"repro_lines,omitempty"`
}

// TestMutantMatrix runs every row against every validation layer and the
// campaign, writes the outcomes to mutant-matrix.json, and fails on a row
// that no layer kills. It runs only under -mutants.matrix.
func TestMutantMatrix(t *testing.T) {
	if !*matrix {
		t.Skip("runs under -mutants.matrix")
	}
	e := newEnv(t)
	var cells []cell
	for _, r := range rows {
		dir := t.TempDir()
		ov, err := e.overlay(r, dir)
		if err != nil {
			t.Fatal(err)
		}
		killed := false
		for _, l := range layers {
			start := time.Now()
			kills, err := e.runChecks(ov, l.checks)
			if err != nil {
				t.Fatal(err)
			}
			c := cell{Mutant: r.name, Layer: l.name, Seconds: time.Since(start).Seconds()}
			for _, k := range kills {
				c.Killers = append(c.Killers, k...)
			}
			c.Killed = len(c.Killers) > 0
			killed = killed || c.Killed
			cells = append(cells, c)
		}
		var args []string
		if r.campaign != nil {
			args = r.campaign.args
		}
		start := time.Now()
		run, err := e.runCampaign(ov, dir, args)
		if err != nil {
			t.Fatal(err)
		}
		c := cell{Mutant: r.name, Layer: "campaign", Seconds: time.Since(start).Seconds(), Killed: len(run.Failures) > 0}
		if c.Killed {
			f := run.Failures[0]
			c.SeedsToKill, c.Property, c.ReproLines = int(f.Seed-run.BaseSeed)+1, f.Property, f.ReproLines
		}
		killed = killed || c.Killed
		cells = append(cells, c)
		if !killed {
			t.Errorf("mutant %s survives every layer: a hole", r.name)
		}
	}
	for _, c := range cells {
		t.Logf("%-24s %-18s killed=%-5v %6.1fs %v%s", c.Mutant, c.Layer, c.Killed, c.Seconds, c.Killers, campaignNote(c))
	}
	type mutant struct{ Name, File, Rationale string }
	var mutants []mutant
	for _, r := range rows {
		mutants = append(mutants, mutant{r.name, r.file, r.rationale})
	}
	js, err := json.MarshalIndent(map[string]any{"campaign_seeds": campaignSeeds, "mutants": mutants, "cells": cells}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("mutant-matrix.json", append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// campaignNote describes a killing campaign cell for the matrix log.
func campaignNote(c cell) string {
	if c.SeedsToKill == 0 {
		return ""
	}
	return fmt.Sprintf(" %s after %d seeds, %d-line repro", c.Property, c.SeedsToKill, c.ReproLines)
}
