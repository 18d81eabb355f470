package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRuns is how many times a run sets up: one set-up is about half a
// second, too short to repeat on this runner, so setup_s is the median of
// three.
const setupRuns = 3

// warmupRounds run untimed at the end of every set-up: tier-up, cache
// fill and lazy initialisation happen here, not in the timed region.
const warmupRounds = 2

// meter is the harness's view of the machine: the calibration burst, the
// wall clock and the process CPU clock. Tests substitute all three.
type meter struct {
	burst func() float64 // one calibration burst, in ms
	now   func() time.Time
	cpu   func() time.Duration
}

func newMeter(k *kernel, parallel int) *meter {
	return &meter{
		burst: func() float64 { return k.burst(parallel) },
		now:   time.Now,
		cpu:   processCPU,
	}
}

// processCPU is user+system CPU time of the whole process: Go's GC and
// every worker goroutine included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundSample is one timed round with the speed factor its two
// bracketing bursts gave: 1 means the machine ran at reference speed,
// 1.2 means everything took a fifth longer.
type roundSample struct {
	factor        float64
	burstMS       float64 // mean of the two bracketing bursts
	wallMS, cpuMS float64 // raw
	// disturbed marks a round one of whose bursts ran far slower than the
	// run's quiet level: the machine was taken away for a while, which no
	// factor corrects (a two-thread op loses more than the kernel does).
	disturbed bool
	roundResult
}

// calibrated runs fn between two bursts and returns its raw wall time
// and the speed factor to divide it by.
func (m *meter) calibrated(fn func()) (wallMS, factor float64) {
	before := m.burst()
	t := m.now()
	fn()
	wallMS = ms(m.now().Sub(t))
	return wallMS, (before + m.burst()) / 2 / refNominalMS
}

// factorWindow is how many rounds on each side share a round's speed
// factor. One burst is a 5 ms sample of a 200 ms round and on its own is
// mostly sampling noise (its correlation with the round's op time is
// about 0.1); the median over eleven rounds, some two seconds, follows
// the machine's drift, which is what moves results between runs.
const factorWindow = 5

// rounds runs timed rounds until more returns false. Each round's burst
// after is the next round's burst before, so calibration costs one burst
// per round.
func (m *meter) rounds(round func(i int) roundResult, more func(i int) bool) []roundSample {
	var out []roundSample
	before := m.burst()
	bursts := []float64{before}
	for i := 0; more(i); i++ {
		c, t := m.cpu(), m.now()
		res := round(i)
		wall, cpu := m.now().Sub(t), m.cpu()-c
		after := m.burst()
		out = append(out, roundSample{
			factor: (before + after) / 2 / refNominalMS, burstMS: (before + after) / 2,
			wallMS: ms(wall), cpuMS: ms(cpu), roundResult: res,
		})
		bursts = append(bursts, after)
		before = after
	}
	raw := make([]float64, len(out))
	for i := range out {
		raw[i] = out[i].factor
	}
	limit := disturbedOver * percentile(bursts, 10)
	for i := range out {
		out[i].factor = median(raw[max(0, i-factorWindow):min(len(raw), i+factorWindow+1)])
		out[i].disturbed = bursts[i] > limit || bursts[i+1] > limit
	}
	return out
}

// disturbedOver is how far above the run's quiet burst level (the tenth
// percentile of its bursts) a burst must be to mark the rounds beside it
// as disturbed. Bursts of an undisturbed run stay within ±15 %.
const disturbedOver = 1.5

// undisturbed returns the rounds the metrics are computed from: those
// not marked disturbed, unless that leaves under a third of the run, in
// which case the whole run was disturbed and there is nothing to choose.
func undisturbed(rs []roundSample) []roundSample {
	var quiet []roundSample
	for _, r := range rs {
		if !r.disturbed {
			quiet = append(quiet, r)
		}
	}
	if 3*len(quiet) < len(rs) {
		return rs
	}
	return quiet
}

// tailBlocks is how many equal stretches a run is cut into for the tail.
const tailBlocks = 10

// blockTail is the tail estimator: the p95 of the calibrated op times
// within each tenth of the run, then the median over the tenths. It is a
// p95: a tail the code produces in half the stretches or more is reported
// in full. Machine noise comes in bursts that lift the p95 of the
// stretches they hit and leave the others alone, so the median over
// stretches repeats where the p95 over the whole run does not.
func blockTail(rs []roundSample) float64 {
	n := min(tailBlocks, len(rs))
	var tails []float64
	for b := 0; b < n; b++ {
		var ops []float64
		for _, r := range rs[b*len(rs)/n : (b+1)*len(rs)/n] {
			for _, o := range r.opsMS {
				ops = append(ops, o/r.factor)
			}
		}
		tails = append(tails, percentile(ops, 95))
	}
	return median(tails)
}

// timing is what the timed rounds say, every time divided by its
// round's speed factor before any percentile is taken.
type timing struct {
	opP50MS, opTailMS, workPerS, cpuMSPerWork float64
	rawOpP50MS, rawWorkPerS                   float64
	// attempted, failed and work count every round; samples only the ops
	// behind the percentiles, dropped the rounds left out as disturbed.
	attempted, failed, work, samples, dropped int
	factors                                   []float64
	burstMS                                   float64
}

// summarize reduces rounds to the timing metrics. concurrent says ops
// overlap (the serve workload's clients), so throughput comes from
// requests per round wall, not from op times.
func summarize(all []roundSample, concurrent bool) timing {
	var t timing
	for _, r := range all {
		t.attempted += len(r.opsMS)
		t.failed += r.failed
		t.work += r.work
	}
	rs := undisturbed(all)
	t.dropped = len(all) - len(rs)
	var ops, rawOps, perRound, rawPerRound, cpuPerWork, bursts []float64
	for _, r := range rs {
		for _, o := range r.opsMS {
			ops = append(ops, o/r.factor)
			rawOps = append(rawOps, o)
		}
		perRound = append(perRound, float64(r.work)/(r.wallMS/r.factor/1000))
		rawPerRound = append(rawPerRound, float64(r.work)/(r.wallMS/1000))
		cpuPerWork = append(cpuPerWork, r.cpuMS/r.factor/float64(r.work))
		bursts = append(bursts, r.burstMS)
		t.factors = append(t.factors, r.factor)
	}
	t.samples = len(ops)
	t.opP50MS = median(ops)
	t.opTailMS = blockTail(rs)
	t.rawOpP50MS = median(rawOps)
	t.cpuMSPerWork = median(cpuPerWork)
	t.burstMS = median(bursts)
	if concurrent {
		t.workPerS = median(perRound)
		t.rawWorkPerS = median(rawPerRound)
	} else {
		workPerOp := float64(t.work) / float64(t.attempted)
		t.workPerS = workPerOp / (trimmedMean(ops) / 1000)
		t.rawWorkPerS = workPerOp / (trimmedMean(rawOps) / 1000)
	}
	return t
}

// runOptions are one benchmark run's arguments.
type runOptions struct {
	seed    int64
	seconds float64
	// rounds, when positive, replaces seconds with an exact number of
	// timed rounds (the tests use it).
	rounds int
	// setups is how many times set-up runs, at least once; setup_s is
	// their median. The command always passes setupRuns; the tests pass 1.
	setups   int
	trace    bool
	expected map[string]string
}

// result is one run: what the driver reads, plus provenance and the
// audit values that let a reader undo the calibration.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
	Provenance provenance        `json:"provenance"`
	// Harness holds the harness.* audit values of this run (both modes
	// report them here; the traced run also lists them as metrics).
	Harness map[string]float64 `json:"harness"`

	// Rounds lists every timed round raw, with its speed factor.
	Rounds []roundRecord `json:"rounds"`

	spans []span
}

// roundRecord is a timed round as written to the result file.
type roundRecord struct {
	Traced      bool    `json:"traced"`
	Disturbed   bool    `json:"disturbed"`
	SpeedFactor float64 `json:"speed_factor"`
	WallMS      float64 `json:"wall_ms"`
	CPUMS       float64 `json:"cpu_ms"`
	OpP50MS     float64 `json:"op_p50_ms"`
	FirstSpan   int     `json:"first_span"`
	EndSpan     int     `json:"end_span"`
}

type provenance struct {
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	RefNominalMS float64 `json:"ref_nominal_ms"`
	Seconds      float64 `json:"seconds"`
	Rounds       int     `json:"rounds"`
	OpsPerRound  int     `json:"ops_per_round"`
	Setups       int     `json:"setups"`
	Claim        *string `json:"claim"` // no gain is claimed by a benchmark run
}

// setUp verifies the workload's programs and starts an instance,
// warmed up and ready for the first timed round.
func setUp(w *workload, o runOptions) (*instance, error) {
	ps := w.programs()
	for _, p := range ps {
		if err := p.verify(o.expected); err != nil {
			return nil, err
		}
	}
	var inst *instance
	var err error
	if w.exec != nil {
		inst = batch(ps, o.seed, w.opsPerRound, w.exec)
	} else if inst, err = w.start(w, ps, o.seed); err != nil {
		return nil, err
	}
	for i := 0; i < warmupRounds; i++ {
		inst.round(nil)
	}
	return inst, nil
}

// run performs one benchmark run of a workload.
func run(w *workload, k *kernel, o runOptions) (*result, error) {
	m := newMeter(k, w.parallel)
	var inst *instance
	var setupS []float64
	o.setups = max(1, o.setups)
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		wall, f := m.calibrated(func() { inst, err = setUp(w, o) })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, wall/f/1000)
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// A traced run alternates untraced and traced rounds, so the tracing
	// overhead is measured inside one run against the same machine state.
	rs := m.rounds(func(i int) roundResult {
		if tr == nil || i%2 == 0 {
			return inst.round(nil)
		}
		first := len(tr.spans)
		r := inst.round(tr)
		r.traced, r.firstSpan, r.endSpan = true, first, len(tr.spans)
		return r
	}, func(i int) bool {
		if o.rounds > 0 {
			return i < o.rounds
		}
		return time.Since(start).Seconds() < o.seconds
	})
	runtime.ReadMemStats(&m1)
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no timed round completed in %v s", w.name, o.seconds)
	}

	t := summarize(rs, w.exec == nil)
	work := float64(t.work)
	f := factsOf(inst.programs)
	res := &result{
		Workload: w.name, Traced: o.trace,
		Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0,
		Provenance: provenance{
			Commit: commit(), Seed: o.seed, GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), RefNominalMS: refNominalMS,
			Seconds: o.seconds, Rounds: len(rs), OpsPerRound: w.opsPerRound, Setups: o.setups,
		},
		Harness: map[string]float64{
			"harness.speed_factor_p50": median(t.factors),
			"harness.speed_factor_min": slices.Min(t.factors),
			"harness.speed_factor_max": slices.Max(t.factors),
			"harness.ref_burst_ms":     t.burstMS,
			"harness.raw_op_p50_ms":    t.rawOpP50MS,
			"harness.raw_work_per_s":   t.rawWorkPerS,
			"harness.go_gc_cycles":     float64(m1.NumGC - m0.NumGC),
			"harness.samples":          float64(t.samples),
			"harness.rounds_dropped":   float64(t.dropped),
		},
	}
	for _, r := range rs {
		res.Rounds = append(res.Rounds, roundRecord{r.traced, r.disturbed, r.factor, r.wallMS, r.cpuMS, median(r.opsMS), r.firstSpan, r.endSpan})
	}
	if !o.trace {
		res.Metrics = map[string]Metric{
			"setup_s":             {median(setupS), "s"},
			"work_per_s":          {t.workPerS, "1/s"},
			"op_p50_ms":           {t.opP50MS, "ms"},
			"op_tail_ms":          {t.opTailMS, "ms"},
			"cpu_ms_per_work":     {t.cpuMSPerWork, "ms"},
			"mallocs_per_work":    {float64(m1.Mallocs-m0.Mallocs) / work, "count"},
			"alloc_kb_per_work":   {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / work, "KB"},
			"elim_static_pct":     {f.elimStaticPct, "%"},
			"elim_dynamic_pct":    {f.elimDynamicPct, "%"},
			"model_cost_per_work": {f.modelCostPerWork, "units"},
			"code_kb_per_work":    {f.codeKBPerWork, "KB"},
		}
		return res, nil
	}
	res.Metrics = layerMetrics(w, inst, m, tr, rs)
	res.spans = tr.spans
	for name, v := range res.Harness {
		res.Metrics[name] = Metric{v, layerUnits[name]}
	}
	return res, nil
}
