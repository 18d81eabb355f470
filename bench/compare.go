package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(root string) ([]bound, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict is one workload × metric row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64 // medians over each set's runs
	worseBy, spread  float64 // shares of a's median
	bound            float64
	status           string // ok, worse, unresolved or missing
}

// judge applies the bounds to two result sets. A metric is unresolved,
// not ok, when either set's own run-to-run quartile spread is wider than
// the bound: the sets cannot tell a change of that size from noise. It is
// missing when only one set has it: a workload that crashed or was never
// run in the other must not pass as ok.
func judge(bounds []bound, a, b []*result) []verdict {
	values := func(rs []*result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	var out []verdict
	for _, w := range allWorkloads {
		for _, bd := range bounds {
			xa, xb := values(a, w.name, bd.Name), values(b, w.name, bd.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			if len(xa) == 0 || len(xb) == 0 {
				out = append(out, verdict{workload: w.name, metric: bd.Name, a: median(xa), b: median(xb), bound: bd.Bound, status: "missing"})
				continue
			}
			v := verdict{workload: w.name, metric: bd.Name, a: median(xa), b: median(xb), bound: bd.Bound, status: "ok"}
			v.worseBy = (v.b - v.a) / math.Abs(v.a)
			if bd.Better == "higher" {
				v.worseBy = -v.worseBy
			}
			v.spread = math.Max(quartileSpread(xa), quartileSpread(xb))
			switch {
			case v.spread > bd.Bound:
				v.status = "unresolved"
			case v.worseBy > bd.Bound:
				v.status = "worse"
			}
			out = append(out, v)
		}
	}
	return out
}

// report prints each workload × metric in its own row and returns an
// error if any is worse or missing.
func report(w io.Writer, vs []verdict) error {
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound", "status")
	worse, missing := 0, 0
	for _, v := range vs {
		fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %8.2f%% %7.2f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worseBy, 100*v.spread, 100*v.bound, v.status)
		switch v.status {
		case "worse":
			worse++
		case "missing":
			missing++
		}
	}
	if worse > 0 || missing > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse than their bound allows, %d are in one set only", worse, missing)
	}
	return nil
}

func compareFiles(root, pathA, pathB string) error {
	bounds, err := loadBounds(root)
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	vs := judge(bounds, a, b)
	if len(vs) == 0 {
		return errors.New("the two result sets share no workload × metric")
	}
	return report(os.Stdout, vs)
}

// aaRuns is how many runs per workload, each with another seed, make one
// set of -aa.
const aaRuns = 5

// selfCompare runs the whole suite twice on this tree, set A then set B
// as the driver does — every run a process of its own, so no run inherits
// another's heap — and compares the two: identical code must come out ok
// on every row.
func selfCompare(root string, o runOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var paths []string
	for _, set := range []string{"A", "B"} {
		var rs []*result
		for _, w := range allWorkloads {
			for seed := 1; seed <= aaRuns; seed++ {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("set %s %s seed %d: %w", set, w.name, seed, err)
				}
				one, err := loadResults(filepath.Join(root, "bench", "out", w.name+".json"))
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "set %s %s seed %d: op_p50_ms %.4g\n", set, w.name, seed, one[0].Metrics["op_p50_ms"].Value)
				rs = append(rs, one...)
			}
		}
		path := filepath.Join(root, "bench", "out", "aa-"+set+".json")
		if err := writeJSON(path, rs); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	return compareFiles(root, paths[0], paths[1])
}
