package main

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// fakeMachine is a meter whose clocks only move when its op or its
// kernel runs, each at its own slowdown.
type fakeMachine struct {
	clock              time.Time
	opSlow, kernelSlow float64
}

func (f *fakeMachine) meter() *meter {
	return &meter{
		burst: func() float64 {
			d := refNominalMS * f.kernelSlow
			f.clock = f.clock.Add(time.Duration(d * float64(time.Millisecond)))
			return d
		},
		now: func() time.Time { return f.clock },
		cpu: func() time.Duration { return f.clock.Sub(time.Time{}) },
	}
}

// op is a stub op of 2 ms at reference speed.
func (f *fakeMachine) round(int) roundResult {
	var r roundResult
	for i := 0; i < 4; i++ {
		d := 2 * f.opSlow
		f.clock = f.clock.Add(time.Duration(d * float64(time.Millisecond)))
		r.opsMS = append(r.opsMS, d)
		r.work += 3
	}
	return r
}

func (f *fakeMachine) measure() timing {
	return summarize(f.meter().rounds(f.round, func(i int) bool { return i < 30 }), false)
}

// The two guard tests are the proof that calibration cannot hide a real
// regression: a slowdown of the machine (op and kernel alike) cancels,
// a slowdown of the op alone is reported in full.
func TestCommonSlowdownCancels(t *testing.T) {
	base := (&fakeMachine{opSlow: 1, kernelSlow: 1}).measure()
	slow := (&fakeMachine{opSlow: 1.3, kernelSlow: 1.3}).measure()
	for name, pair := range map[string][2]float64{
		"op_p50_ms":       {base.opP50MS, slow.opP50MS},
		"op_tail_ms":      {base.opTailMS, slow.opTailMS},
		"work_per_s":      {base.workPerS, slow.workPerS},
		"cpu_ms_per_work": {base.cpuMSPerWork, slow.cpuMSPerWork},
	} {
		if !near(pair[1], pair[0], 0.01) {
			t.Errorf("%s: %.4g on the slow machine, %.4g on the reference one; want within 1 %%", name, pair[1], pair[0])
		}
	}
	if !near(slow.rawOpP50MS, 1.3*base.rawOpP50MS, 0.01) {
		t.Errorf("raw op p50 %.4g, want 1.3 × %.4g: the audit value must keep the slowdown", slow.rawOpP50MS, base.rawOpP50MS)
	}
}

func TestOpOnlySlowdownIsReported(t *testing.T) {
	base := (&fakeMachine{opSlow: 1, kernelSlow: 1}).measure()
	slow := (&fakeMachine{opSlow: 1.3, kernelSlow: 1}).measure()
	if !near(slow.opP50MS, 1.3*base.opP50MS, 0.01) || !near(slow.opTailMS, 1.3*base.opTailMS, 0.01) {
		t.Errorf("op p50 %.4g tail %.4g, want 1.3 × %.4g and %.4g", slow.opP50MS, slow.opTailMS, base.opP50MS, base.opTailMS)
	}
	if !near(slow.workPerS, base.workPerS/1.3, 0.01) {
		t.Errorf("work/s %.4g, want %.4g / 1.3", slow.workPerS, base.workPerS)
	}
	if !near(slow.cpuMSPerWork, 1.3*base.cpuMSPerWork, 0.01) {
		t.Errorf("cpu/work %.4g, want 1.3 × %.4g", slow.cpuMSPerWork, base.cpuMSPerWork)
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {95, 9.55}, {100, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want, 1e-12) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// One stalled op out of ten is dropped with the top tenth.
	if got := trimmedMean([]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 500}); got != 2 {
		t.Errorf("trimmedMean = %v, want 2", got)
	}
	if got := trimmedMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("trimmedMean of three = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread(xs); !near(got, (8.25-2.75)/5.5, 1e-12) {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "pipeline.compile", StartNS: 10, EndNS: 70, Parent: 0},
		{Name: "core.analyze", StartNS: 20, EndNS: 50, Parent: 1},
		{Name: "vm.run", StartNS: 70, EndNS: 95, Parent: 0},
	}
	if got, want := selfTimes(spans), []int64{15, 30, 30, 25}; !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDisturbedRoundsAreLeftOut(t *testing.T) {
	f := &fakeMachine{opSlow: 1, kernelSlow: 1}
	m := f.meter()
	rs := m.rounds(func(i int) roundResult {
		// The machine is taken away during rounds 10–14: ops take five
		// times as long and the kernel three times.
		f.opSlow, f.kernelSlow = 1, 1
		if i >= 10 && i < 15 {
			f.opSlow, f.kernelSlow = 5, 3
		}
		return f.round(i)
	}, func(i int) bool { return i < 40 })
	got := summarize(rs, false)
	if got.dropped < 5 || got.dropped > 7 {
		t.Errorf("dropped %d rounds, want the five disturbed ones and at most their two neighbours", got.dropped)
	}
	if !near(got.opP50MS, 2, 0.01) || !near(got.opTailMS, 2, 0.01) {
		t.Errorf("op p50 %.4g tail %.4g, want the undisturbed 2 ms", got.opP50MS, got.opTailMS)
	}
	if got.attempted != 40*4 {
		t.Errorf("attempted %d, want every op counted", got.attempted)
	}
}

// tailRounds is forty rounds of twenty 10 ms ops; slow says which rounds
// have one op in ten take 30 ms.
func tailRounds(slow func(round int) bool) []roundSample {
	var rs []roundSample
	for i := 0; i < 40; i++ {
		r := roundSample{factor: 1}
		for j := 0; j < 20; j++ {
			op := 10.0
			if j%10 == 9 && slow(i) {
				op = 30
			}
			r.opsMS = append(r.opsMS, op)
		}
		rs = append(rs, r)
	}
	return rs
}

func TestBlockTail(t *testing.T) {
	// A stall of the machine that hits a fifth of the run is not the
	// code's tail.
	if got := blockTail(tailRounds(func(i int) bool { return i >= 8 && i < 16 })); got != 10 {
		t.Errorf("blockTail = %v with a stall in two tenths of the run, want 10", got)
	}
	// A tail the code produces now and then — a storm every other second,
	// in six tenths of the run — is: the estimator is a p95, not a floor.
	if got := blockTail(tailRounds(func(i int) bool { return i%20 < 12 })); got != 30 {
		t.Errorf("blockTail = %v with one op in ten slow in six tenths of the run, want 30", got)
	}
	if got := blockTail(tailRounds(func(int) bool { return true })); got != 30 {
		t.Errorf("blockTail = %v with one op in ten slow throughout, want 30", got)
	}
}

func TestJudge(t *testing.T) {
	set := func(values ...float64) []*result {
		var rs []*result
		for _, v := range values {
			rs = append(rs, &result{Workload: "run_hot", Metrics: map[string]Metric{"op_p50_ms": {v, "ms"}, "work_per_s": {1000 / v, "1/s"}}})
		}
		return rs
	}
	bounds := []bound{{Name: "op_p50_ms", Better: "lower", Bound: 0.1}, {Name: "work_per_s", Better: "higher", Bound: 0.1}}
	status := func(a, b []*result) []string {
		var out []string
		for _, v := range judge(bounds, a, b) {
			out = append(out, v.status)
		}
		return out
	}
	steady := set(10, 10.1, 10.2, 9.9, 9.8)
	if got := status(steady, set(10.3, 10.2, 10.4, 10.1, 10.5)); !slices.Equal(got, []string{"ok", "ok"}) {
		t.Errorf("3 %% slower: %v, want ok", got)
	}
	if got := status(steady, set(12, 12.1, 12.2, 11.9, 11.8)); !slices.Equal(got, []string{"worse", "worse"}) {
		t.Errorf("20 %% slower: %v, want worse", got)
	}
	if got := status(steady, set(8, 8.1, 7.9, 8.2, 7.8)); !slices.Equal(got, []string{"ok", "ok"}) {
		t.Errorf("20 %% faster: %v, want ok", got)
	}
	if got := status(steady, set(8, 12, 10, 14, 9)); !slices.Equal(got, []string{"unresolved", "unresolved"}) {
		t.Errorf("spread wider than the bound: %v, want unresolved", got)
	}
	if got := status(steady, nil); !slices.Equal(got, []string{"missing", "missing"}) {
		t.Errorf("workload absent from set B: %v, want missing", got)
	}
	if err := report(io.Discard, judge(bounds, steady, nil)); err == nil {
		t.Error("a workload one set lacks must fail the comparison")
	}
	if err := report(io.Discard, judge(bounds, steady, steady)); err != nil {
		t.Errorf("a set against itself: %v", err)
	}
}

// benchmarkSpec is BENCHMARK.json as the tests read it.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []bound `json:"end_to_end"`
	PerLayer  []bound `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smoke(t *testing.T, w *workload, o runOptions) *result {
	t.Helper()
	o.rounds, o.setups = 2, 1
	if o.expected == nil {
		var err error
		if o.expected, err = loadExpected(".."); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(w, testKernel, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var testKernel = newKernel()

// TestSmoke runs every workload for two rounds; without -short it runs
// each a second time with the same seed and requires the count metrics to
// repeat.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	exact := []string{"elim_static_pct", "elim_dynamic_pct", "model_cost_per_work", "code_kb_per_work"}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			first := smoke(t, w, runOptions{seed: 1})
			if !first.Correct || first.Failed != 0 {
				t.Errorf("%d of %d ops failed", first.Failed, first.Attempted)
			}
			h := first.Harness
			if first.Attempted != 2*w.opsPerRound || h["harness.samples"]+h["harness.rounds_dropped"]*float64(w.opsPerRound) != float64(first.Attempted) {
				t.Errorf("attempted %d ops with %v behind the percentiles and %v rounds dropped, want 2 rounds × %d",
					first.Attempted, h["harness.samples"], h["harness.rounds_dropped"], w.opsPerRound)
			}
			if len(first.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d end-to-end metrics reported, BENCHMARK.json lists %d", len(first.Metrics), len(spec.EndToEnd))
			}
			for _, b := range spec.EndToEnd {
				m, ok := first.Metrics[b.Name]
				if !ok || m.Unit != b.Unit || !(m.Value > 0) {
					t.Errorf("%s: reported %+v (present %v), want a positive value in %s", b.Name, m, ok, b.Unit)
				}
			}
			if testing.Short() {
				return
			}
			second := smoke(t, w, runOptions{seed: 1})
			for _, name := range exact {
				if first.Metrics[name] != second.Metrics[name] {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, first.Metrics[name], second.Metrics[name])
				}
			}
			for _, name := range []string{"mallocs_per_work", "alloc_kb_per_work"} {
				// Two rounds of the serve workload are 32 decks, not enough to
				// even out which programs the hits fall on.
				tol := 0.01
				if w.exec == nil {
					tol = 0.1
				}
				if !near(second.Metrics[name].Value, first.Metrics[name].Value, tol) {
					t.Errorf("%s: %v then %v, want within %v", name, first.Metrics[name].Value, second.Metrics[name].Value, tol)
				}
			}
		})
	}
}

// A different seed changes the order of the work and nothing else.
func TestSeedOnlyReorders(t *testing.T) {
	w := allWorkloads[1]
	a, b := w.programs(), w.programs()
	if keys := func(ps []*program) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.key)
		}
		return out
	}; slices.Equal(keys(shuffled(a, 1)), keys(shuffled(b, 2))) || !slices.Equal(keys(shuffled(a, 1)), keys(shuffled(b, 1))) {
		t.Error("seeds 1 and 2 must order the sweep differently, and seed 1 the same way twice")
	}
	if testing.Short() {
		return
	}
	one, two := smoke(t, w, runOptions{seed: 1}), smoke(t, w, runOptions{seed: 2})
	for _, name := range []string{"elim_static_pct", "elim_dynamic_pct", "model_cost_per_work", "code_kb_per_work"} {
		if one.Metrics[name] != two.Metrics[name] {
			t.Errorf("%s differs between seeds: %v and %v", name, one.Metrics[name], two.Metrics[name])
		}
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	exp, err := loadExpected("..")
	if err != nil {
		t.Fatal(err)
	}
	exp = maps.Clone(exp)
	exp["jess@100"] = "000000000000000000000000"
	res := smoke(t, allWorkloads[1], runOptions{seed: 1, expected: exp})
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d with a corrupted digest, want failures", res.Correct, res.Failed)
	}
}

// A run too short to complete a round has nothing to report.
func TestNoRoundIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("sets a workload up")
	}
	exp, err := loadExpected("..")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := run(allWorkloads[1], testKernel, runOptions{seed: 1, seconds: 0, expected: exp}); err == nil {
		t.Errorf("a run of 0 s returned %d rounds and no error", res.Provenance.Rounds)
	}
}

// TestTracedRun checks that a traced run reports exactly BENCHMARK.json's
// per-layer metrics and that the layers separate as the README says.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload and its probes")
	}
	spec := loadSpec(t)
	res := smoke(t, allWorkloads[0], runOptions{seed: 1, trace: true})
	if len(spec.PerLayer) != len(layerUnits) || len(res.Metrics) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d, the run reported %d", len(spec.PerLayer), len(layerUnits), len(res.Metrics))
	}
	for _, b := range spec.PerLayer {
		if m, ok := res.Metrics[b.Name]; !ok || m.Unit != b.Unit || layerUnits[b.Name] != b.Unit {
			t.Errorf("%s: reported %+v (present %v), BENCHMARK.json says unit %s", b.Name, m, ok, b.Unit)
		}
	}
	if pct := res.Metrics["pipeline.stages_sum_pct"].Value; pct < 85 || pct > 115 {
		t.Errorf("re-sequenced stages sum to %.1f %% of pipeline.Compile; the decomposition is not faithful", pct)
	}
	// compile_cold owns the compile path and never enters the VM or the
	// collectors: their probes run under run_hot and gc_mark.
	for _, name := range []string{"vm.fused_ns_per_instr_q64", "satb.barrier_ns.conditional.idle", "gc.satb_mark_ms", "gc.share_pct"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on compile_cold, want 0: the workload never enters that layer", name, v)
		}
	}
	if len(res.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	for _, s := range res.spans {
		if s.EndNS < s.StartNS || s.Parent >= len(res.spans) {
			t.Fatalf("malformed span %+v", s)
		}
	}
}
