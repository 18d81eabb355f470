// Command bench is the repository's benchmark: four workloads, each
// measured end to end by an untraced run and layer by layer by a traced
// one, with every time divided by a calibration factor so that results
// repeat on a shared two-core runner. See README.md.
//
//	go run -C bench . -workload compile_cold -seed 1 -seconds 20 -trace 0
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -aa
//	go run -C bench . -update-expected
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: compile_cold, run_hot, gc_mark or satbd_serve")
		seed     = flag.Int64("seed", 1, "orders the workload's inputs; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed region")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
		compare  = flag.Bool("compare", false, "compare two result sets (arguments: A.json B.json) under BENCHMARK.json's bounds")
		aa       = flag.Bool("aa", false, "run the suite twice on this tree and compare the two sets")
		expected = flag.Bool("update-expected", false, "regenerate testdata/expected.json")
	)
	flag.Parse()
	if err := dispatch(*name, *compare, *aa, *expected, runOptions{
		seed: *seed, seconds: *seconds, setups: setupRuns, trace: *trace != 0,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(name string, compare, aa, expected bool, o runOptions) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	switch {
	case expected:
		return updateExpected(root)
	case compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	case aa:
		return selfCompare(root, o)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if o.expected, err = loadExpected(root); err != nil {
		return err
	}
	res, err := run(w, newKernel(), o)
	if err != nil {
		return err
	}
	if err := res.write(root); err != nil {
		return err
	}
	res.print()
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or mismatched their reference", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// findRoot locates the repository root — the directory that holds
// BENCHMARK.json — from the repository root itself or from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or from bench/")
}

// commit names the tree the run measured, when git can tell.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print lists every metric by name with its unit, then the one JSON
// line the driver reads.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	line, _ := json.Marshal(struct { // a struct of numbers, bools and strings always marshals
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// write stores the run under bench/out/: the result as a one-run result
// set, and a traced run's spans beside it.
func (r *result) write(root string) error {
	base := filepath.Join(root, "bench", "out", r.Workload)
	if !r.Traced {
		return writeJSON(base+".json", []*result{r})
	}
	if err := writeJSON(base+".trace.json", struct {
		Provenance provenance    `json:"provenance"`
		Rounds     []roundRecord `json:"rounds"`
		Spans      []span        `json:"spans"`
	}{r.Provenance, r.Rounds, r.spans}); err != nil {
		return err
	}
	return writeJSON(base+".traced.json", []*result{r})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes through a temporary file and a rename, so a
// reader never sees half a result.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
