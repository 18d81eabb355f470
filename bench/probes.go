package main

import (
	"context"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/core"
	"satbelim/internal/gc"
	"satbelim/internal/heap"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
)

// The per-layer metrics come from a traced run only. Everything here
// measures a layer from outside, by timing calls into its public
// functions; times are calibrated milliseconds per program unless the
// name says otherwise.

const probeReps = 3

// layerUnits names every per-layer metric and its unit; BENCHMARK.json's
// per_layer list is this table (a test holds the two together).
var layerUnits = map[string]string{
	"harness.speed_factor_p50": "ratio", "harness.speed_factor_min": "ratio", "harness.speed_factor_max": "ratio",
	"harness.ref_burst_ms": "ms", "harness.raw_op_p50_ms": "ms", "harness.raw_work_per_s": "1/s",
	"harness.trace_overhead_pct": "%", "harness.op_self_ms": "ms", "harness.go_gc_cycles": "count", "harness.samples": "count", "harness.rounds_dropped": "count",

	"minijava.parse_ms": "ms", "minijava.parse_mallocs": "count",
	"minijava.check_ms": "ms", "minijava.check_mallocs": "count",
	"codegen.compile_ms": "ms", "codegen.compile_mallocs": "count", "codegen.bytecode_bytes": "B",
	"inline.apply_ms": "ms", "inline.apply_mallocs": "count", "inline.expanded_calls": "count", "inline.bytecode_bytes": "B",
	"verifier.verify_ms": "ms", "verifier.verify_mallocs": "count",
	"core.callgraph_ms": "ms", "core.callgraph_mallocs": "count", "core.callgraph_sccs": "count",
	"core.summaries_ms": "ms", "core.summaries_mallocs": "count",
	"core.analyze_ms": "ms", "core.analyze_mallocs": "count",
	"core.block_visits": "count", "core.methods_degraded": "count", "core.sites_total": "count", "core.sites_elided": "count",
	"pipeline.compile_ms": "ms", "pipeline.compile_mallocs": "count", "pipeline.stages_sum_pct": "%",
	"pipeline.cache_hit_ms": "ms", "pipeline.cache_hits": "count", "pipeline.cache_misses": "count",
	"pipeline.cache_coalesced": "count", "pipeline.cache_evictions": "count",

	"vm.decode_ms": "ms", "vm.decode_mallocs": "count",
	"vm.switch_ns_per_instr_q64": "ns", "vm.switch_ns_per_instr_q8192": "ns", "vm.switch_mallocs_per_kinstr": "count",
	"vm.fused_ns_per_instr_q64": "ns", "vm.fused_ns_per_instr_q8192": "ns", "vm.fused_mallocs_per_kinstr": "count",
	"vm.compiled_ns_per_instr_q64": "ns", "vm.compiled_ns_per_instr_q8192": "ns", "vm.compiled_mallocs_per_kinstr": "count",
	"vm.compiled_tier_ups": "count", "vm.compiled_deopts": "count", "vm.compiled_seg_execs": "count",

	"satb.logged_per_kinstr": "count", "satb.shaded_per_kinstr": "count", "satb.cost_units_per_kinstr": "units",

	"gc.satb_mark_ms": "ms", "gc.satb_mark_mallocs": "count", "gc.satb_finish_ms": "ms", "gc.satb_finish_work": "count",
	"gc.inc_mark_ms": "ms", "gc.inc_mark_mallocs": "count", "gc.inc_finish_ms": "ms", "gc.inc_finish_work": "count",
	"gc.cycles_per_run": "count", "gc.final_pause_work_per_cycle": "count", "gc.share_pct": "%",
	"heap.alloc_ns": "ns", "heap.sweep_ms": "ms", "heap.swept_per_run": "count",

	"satbd.hit_p50_ms": "ms", "satbd.miss_p50_ms": "ms", "satbd.run_p50_ms": "ms", "satbd.compile_p50_ms": "ms",
	"satbd.analyze_p50_ms": "ms", "satbd.queue_wait_p50_ms": "ms", "satbd.server_elapsed_p50_ms": "ms",
	"satbd.transport_p50_ms": "ms", "satbd.healthz_p50_ms": "ms", "satbd.requests": "count",
	"satbd.queued_peak": "count", "satbd.shed": "count", "satbd.degraded": "count", "satbd.timeouts": "count",
}

// barrierSpecs are the six flavors of the barrier micro-loop, named in
// their metrics by satb's own names.
func barrierSpecs() []*satb.BarrierSpec {
	var out []*satb.BarrierSpec
	for _, sp := range satb.AllSpecs() {
		if sp.Mode != satb.ModeNoBarrier {
			out = append(out, sp)
		}
	}
	return out
}

func init() {
	for _, sp := range barrierSpecs() {
		layerUnits["satb.barrier_ns."+sp.Name+".idle"] = "ns"
		layerUnits["satb.barrier_ns."+sp.Name+".marking"] = "ns"
	}
}

// must unwraps a result whose error set-up has already ruled out: every
// program the probes compile or run was compiled and run there. A
// failure here is a bug in the harness, not an input.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// layers collects the per-layer values of one traced run.
type layers struct {
	m  *meter
	tr *tracer
	v  map[string]float64
}

// layerMetrics runs the workload's layer probes after the timed rounds
// and joins them with what the traced rounds recorded. A probe runs only
// under a workload that owns its layers (workload.probes); a layer a
// workload never enters reports 0.
func layerMetrics(w *workload, inst *instance, m *meter, tr *tracer, rs []roundSample) map[string]Metric {
	l := &layers{m: m, tr: tr, v: map[string]float64{}}
	l.fromRounds(rs)
	w.probes(l, inst.programs)
	if inst.layer != nil {
		maps.Copy(l.v, inst.layer())
	}
	out := map[string]Metric{}
	for name, unit := range layerUnits {
		out[name] = Metric{l.v[name], unit}
	}
	return out
}

// fromRounds derives what the alternating traced/untraced rounds show:
// the tracing overhead, the harness's own share of an op, the barrier
// and collector traffic of the timed executions, and the request
// latencies split by what the daemon did.
func (l *layers) fromRounds(rs []roundSample) {
	var traced, untraced, opSelf []float64
	var steps, logged, shaded, cost, cycles, pause, swept, runs float64
	byKind := map[string][]float64{}
	self := selfTimes(l.tr.spans)
	for _, r := range undisturbed(rs) {
		for _, o := range r.opsMS {
			if r.traced {
				traced = append(traced, o/r.factor)
			} else {
				untraced = append(untraced, o/r.factor)
			}
		}
		for i := r.firstSpan; i < r.endSpan; i++ {
			if l.tr.spans[i].Name == "op" {
				opSelf = append(opSelf, float64(self[i])/1e6/r.factor)
			}
		}
		for _, res := range r.runs {
			runs++
			steps += float64(res.Steps)
			logged += float64(res.Counters.Logged)
			shaded += float64(res.Counters.Shaded)
			cost += float64(res.Counters.Cost)
			cycles += float64(res.Cycles)
			pause += float64(res.FinalPauseWork)
			swept += float64(res.Swept)
		}
		for _, q := range r.reqs {
			add := func(kind string, v float64) { byKind[kind] = append(byKind[kind], v/r.factor) }
			if q.endpoint == "healthz" {
				add("healthz", q.clientMS)
				continue
			}
			add(q.endpoint, q.clientMS)
			if q.hit {
				add("hit", q.clientMS)
			} else {
				add("miss", q.clientMS)
			}
			add("queue_wait", q.queueWaitMS)
			add("server_elapsed", q.servMS)
			add("transport", q.clientMS-q.servMS)
		}
	}
	if u := median(untraced); u > 0 {
		l.v["harness.trace_overhead_pct"] = 100 * (median(traced) - u) / u
	}
	l.v["harness.op_self_ms"] = median(opSelf)
	if steps > 0 {
		l.v["satb.logged_per_kinstr"] = 1000 * logged / steps
		l.v["satb.shaded_per_kinstr"] = 1000 * shaded / steps
		l.v["satb.cost_units_per_kinstr"] = 1000 * cost / steps
		l.v["gc.cycles_per_run"] = cycles / runs
		l.v["heap.swept_per_run"] = swept / runs
	}
	if cycles > 0 {
		l.v["gc.final_pause_work_per_cycle"] = pause / cycles
	}
	for kind, xs := range byKind {
		l.v["satbd."+kind+"_p50_ms"] = median(xs)
	}
}

// probe runs fn probeReps times, each between two calibration bursts
// and under one root span, and returns the calibrated medians of what fn
// reports (fn returns raw values that scale with machine speed).
func (l *layers) probe(name string, fn func(root int) map[string]float64) {
	acc := map[string][]float64{}
	for rep := 0; rep < probeReps; rep++ {
		var vals map[string]float64
		_, f := l.m.calibrated(func() {
			root := l.tr.start("probe."+name, -1)
			vals = fn(root)
			l.tr.end(root)
		})
		for k, v := range vals {
			acc[k] = append(acc[k], v/f)
		}
	}
	for k, xs := range acc {
		l.v[k] = median(xs)
	}
}

func mallocs() uint64 {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return s.Mallocs
}

// stages re-sequences the compile path: the public functions
// pipeline.Compile calls, in its order, each handed to stage. core's
// callgraph is built once more on its own (ComputeSummariesParallel
// builds it internally), so its span is not part of the stage sum.
func stages(p *program, stage func(name string, fn func()), counts map[string]float64) {
	workers := runtime.GOMAXPROCS(0)
	var ast *minijava.Program
	stage("minijava.parse", func() { ast = must(minijava.Parse(p.name+".mj", p.src)) })
	var checked *minijava.Checked
	stage("minijava.check", func() { checked = must(minijava.Check(p.name+".mj", ast)) })
	var prog *bytecode.Program
	stage("codegen.compile", func() { prog = must(codegen.Compile(checked)) })
	counts["codegen.bytecode_bytes"] += float64(prog.Size())

	stage("inline.apply", func() {
		ir := inline.Apply(prog, inline.Options{Limit: p.opts.InlineLimit})
		prog = ir.Program
		counts["inline.expanded_calls"] += float64(ir.Expanded)
	})
	counts["inline.bytecode_bytes"] += float64(prog.Size())

	stage("verifier.verify", func() {
		if err := verifyParallel(prog, workers); err != nil {
			panic(err) // see must
		}
	})

	stage("core.callgraph", func() {
		counts["core.callgraph_sccs"] += float64(len(core.Condense(core.BuildCallGraph(prog)).SCCs))
	})
	opts := p.opts.Analysis
	if opts.Interprocedural {
		stage("core.summaries", func() { opts.Summaries = must(core.ComputeSummariesParallel(prog, opts, workers)) })
	}
	var rep *core.ProgramReport
	stage("core.analyze", func() { rep = must(core.AnalyzeProgramCtx(context.Background(), prog, opts, workers)) })
	fs, as, fe, ae, _ := rep.Totals()
	counts["core.block_visits"] += float64(rep.BlockVisits())
	counts["core.methods_degraded"] += float64(len(rep.Degraded()))
	counts["core.sites_total"] += float64(fs + as)
	counts["core.sites_elided"] += float64(fe + ae)
}

// verifyParallel fans verifier.Verify across workers the way
// pipeline.Compile does, so the verify stage is timed at the same width.
func verifyParallel(p *bytecode.Program, workers int) error {
	methods := p.Methods()
	errs := make([]error, len(methods))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(methods)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(methods); i = int(next.Add(1)) - 1 {
				errs[i] = verifier.Verify(p, methods[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// compileStages times, for every program of the workload under its own
// build options, the whole pipeline.Compile and then the same path stage
// by stage. pipeline.stages_sum_pct says how faithful the decomposition
// is: the stages' sum as a share of the whole.
func (l *layers) compileStages(ps []*program) {
	n := float64(len(ps))
	l.probe("compile", func(root int) map[string]float64 {
		first := len(l.tr.spans)
		for _, p := range ps {
			id := l.tr.start("pipeline.compile", root)
			must(pipeline.Compile(p.name, p.src, p.opts))
			l.tr.end(id)
			stages(p, func(name string, fn func()) {
				id := l.tr.start(name, root)
				fn()
				l.tr.end(id)
			}, map[string]float64{})
		}
		out := map[string]float64{}
		for name, ds := range durationsMS(l.tr.spans[first:]) {
			for _, d := range ds {
				out[name+"_ms"] += d / n
			}
		}
		return out
	})
	sum := 0.0
	for _, name := range summedStages {
		sum += l.v[name+"_ms"]
	}
	if whole := l.v["pipeline.compile_ms"]; whole > 0 {
		l.v["pipeline.stages_sum_pct"] = 100 * sum / whole
	}

	// Allocation counts and work counts are exact, so one untimed pass
	// measures them; reading MemStats around a timed span would stop the
	// world inside it.
	counts := map[string]float64{}
	for _, p := range ps {
		m0 := mallocs()
		must(pipeline.Compile(p.name, p.src, p.opts))
		counts["pipeline.compile_mallocs"] += float64(mallocs() - m0)
		stages(p, func(name string, fn func()) {
			m0 := mallocs()
			fn()
			counts[name+"_mallocs"] += float64(mallocs() - m0)
		}, counts)
	}
	for name, v := range counts {
		l.v[name] = v / n
	}
}

// summedStages are the stages whose times add up to one Compile.
var summedStages = []string{
	"minijava.parse", "minijava.check", "codegen.compile", "inline.apply",
	"verifier.verify", "core.summaries", "core.analyze",
}

// compilePath is the probe set of the two workloads that compile in their
// timed region.
func compilePath(l *layers, ps []*program) {
	l.compileStages(ps)
	l.cacheHit(ps[0])
}

// cacheHit times a build served from pipeline.Cache.
func (l *layers) cacheHit(p *program) {
	const hits = 500
	opts := p.opts
	opts.NoCache = false
	opts.Cache = pipeline.NewCache(16)
	must(pipeline.Compile(p.name, p.src, opts))
	l.probe("cache_hit", func(int) map[string]float64 {
		t := time.Now()
		for i := 0; i < hits; i++ {
			must(pipeline.Compile(p.name, p.src, opts))
		}
		return map[string]float64{"pipeline.cache_hit_ms": ms(time.Since(t)) / hits}
	})
}

// engines runs the six workloads on each engine at a short and a long
// scheduler quantum. vm.New (decode) and Run are timed apart.
func (l *layers) engines() {
	var builds []*pipeline.Build
	for _, s := range workloadSources() {
		builds = append(builds, must(pipeline.Compile(s.key, s.src, modeA(100))))
	}
	n := float64(len(builds))
	sweep := func(cfg vm.Config, root int) (decode, run time.Duration, steps float64, last []*vm.Result) {
		for _, b := range builds {
			id := l.tr.start("vm.decode", root)
			t := time.Now()
			m := vm.New(b.Program, cfg)
			decode += time.Since(t)
			l.tr.end(id)
			id = l.tr.start("vm.run", root)
			t = time.Now()
			res := must(m.Run())
			run += time.Since(t)
			l.tr.end(id)
			steps += float64(res.Steps)
			last = append(last, res)
		}
		return
	}
	for _, engine := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
		name := engine.String()
		for _, q := range []int{64, 8192} {
			cfg := vm.Config{Engine: engine, Barrier: satb.ModeConditional, Quantum: q}
			suffix := map[int]string{64: "_q64", 8192: "_q8192"}[q]
			l.probe("vm."+name+suffix, func(root int) map[string]float64 {
				decode, run, steps, _ := sweep(cfg, root)
				out := map[string]float64{"vm." + name + "_ns_per_instr" + suffix: float64(run) / steps}
				if engine == vm.EngineFused && q == 64 {
					out["vm.decode_ms"] = ms(decode) / n
				}
				return out
			})
		}
		cfg := vm.Config{Engine: engine, Barrier: satb.ModeConditional}
		m0 := mallocs()
		_, _, steps, results := sweep(cfg, -1)
		l.v["vm."+name+"_mallocs_per_kinstr"] = float64(mallocs()-m0) / (steps / 1000)
		if engine == vm.EngineCompiled {
			for _, res := range results {
				l.v["vm.compiled_tier_ups"] += float64(res.TierUps) / n
				l.v["vm.compiled_deopts"] += float64(res.TierDeopts) / n
				l.v["vm.compiled_seg_execs"] += float64(res.TierSegExecs) / n
			}
		}
	}
	m0 := mallocs()
	for _, b := range builds {
		vm.New(b.Program, vm.Config{Engine: vm.EngineFused})
	}
	l.v["vm.decode_mallocs"] = float64(mallocs()-m0) / n
}

// barriers times each flavor's kept-barrier path in a micro-loop, with
// marking idle and with marking active, against a logger that discards.
// Measured ns over the flavor's RISC units is the model-vs-measured
// check.
func (l *layers) barriers() {
	const calls = 200_000
	for _, spec := range barrierSpecs() {
		for _, marking := range []bool{false, true} {
			metric := "satb.barrier_ns." + spec.Name + ".idle"
			if marking {
				metric = "satb.barrier_ns." + spec.Name + ".marking"
			}
			c := satb.NewCounters()
			site := c.Site(satb.SiteKey{Method: "probe", PC: 0}, satb.FieldSite, satb.ElideNone)
			log := &satb.NopLogger{Active: marking}
			l.probe(metric, func(int) map[string]float64 {
				t := time.Now()
				for i := 0; i < calls; i++ {
					c.BarrierSiteSpec(spec, log, site, satb.ElideNone, heap.Ref(1), heap.Ref(2), heap.Ref(3))
				}
				return map[string]float64{metric: float64(time.Since(t)) / calls}
			})
		}
	}
}

const (
	graphObjects = 50_000
	graphRoots   = 16
	graphMutated = 2_000 // objects the simulated mutator touches mid-mark
)

// graph builds the fixed object graph the markers are driven over: two
// reference fields per object, edges from a fixed generator, so a part
// of the heap is unreachable and Sweep has something to free.
func graph() (h *heap.Heap, roots []heap.Ref, allocNS float64) {
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "T", Fields: []*bytecode.Field{
		{Name: "a", Type: bytecode.ClassType("T")}, {Name: "b", Type: bytecode.ClassType("T")},
	}})
	h = heap.New(heap.NewLayout(p))
	refs := make([]heap.Ref, graphObjects)
	t := time.Now()
	for i := range refs {
		refs[i] = h.AllocObjectN("T", 2)
	}
	allocNS = float64(time.Since(t)) / graphObjects
	rng := rand.New(rand.NewSource(corpusBase))
	for _, r := range refs {
		o := h.Get(r)
		for f := range o.Fields {
			// A quarter of the fields stay null: about half the heap is
			// reachable from the roots and the rest is garbage.
			if rng.Intn(4) != 0 {
				o.Fields[f] = heap.RefVal(refs[rng.Intn(len(refs))])
			} else {
				o.Fields[f] = heap.NullVal()
			}
		}
	}
	return h, refs[:graphRoots], allocNS
}

// collectors drives both markers directly over the fixed graph: Start,
// Step at the VM's default budget until the concurrent phase is done
// while a simulated mutator logs or dirties objects, then Finish (the
// pause) and Sweep.
func (l *layers) collectors() {
	const stepBudget = 32
	drive := func(prefix string, newMarker func(*heap.Heap) gc.Marker, mutate func(gc.Marker, heap.Ref)) {
		l.probe(prefix, func(int) map[string]float64 {
			h, roots, allocNS := graph()
			m := newMarker(h)
			m0 := mallocs()
			t := time.Now()
			m.Start(roots, false)
			for i := 1; i <= graphMutated; i++ {
				mutate(m, heap.Ref(i*(graphObjects/graphMutated)))
			}
			for !m.Step(stepBudget) {
			}
			mark := time.Since(t)
			l.v[prefix+"_mark_mallocs"] = float64(mallocs() - m0)
			t = time.Now()
			l.v[prefix+"_finish_work"] = float64(m.Finish(roots))
			finish := time.Since(t)
			t = time.Now()
			h.Sweep()
			sweep := time.Since(t)
			return map[string]float64{
				prefix + "_mark_ms": ms(mark), prefix + "_finish_ms": ms(finish),
				"heap.sweep_ms": ms(sweep), "heap.alloc_ns": allocNS,
			}
		})
	}
	drive("gc.satb", func(h *heap.Heap) gc.Marker { return gc.NewSATB(h) }, func(m gc.Marker, r heap.Ref) { m.LogPreValue(r) })
	drive("gc.inc", func(h *heap.Heap) gc.Marker { return gc.NewInc(h) }, func(m gc.Marker, r heap.Ref) { m.DirtyCard(r) })
}

// gcShare times the workload's own sweep and the same sweep with the
// collector off (same engine, same barrier flavor), turn about; the
// difference as a share of the own sweep is what the collector costs.
func (l *layers) gcShare(ps []*program) {
	var own, off []float64
	sweep := func(collect bool) float64 {
		wall, f := l.m.calibrated(func() {
			for _, p := range ps {
				cfg := p.opts.Runtime
				if !collect {
					cfg.GC, cfg.ForceMarkingAlways, cfg.TriggerEveryAllocs = vm.GCNone, false, 0
				}
				must(vm.New(p.build.Program, cfg).Run())
			}
		})
		return wall / f
	}
	for rep := 0; rep < probeReps; rep++ {
		own = append(own, sweep(true))
		off = append(off, sweep(false))
	}
	l.v["gc.share_pct"] = 100 * (1 - median(off)/median(own))
}
