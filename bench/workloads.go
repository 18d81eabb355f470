package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// parallel is how many cores an op keeps busy; the calibration
	// burst runs on as many goroutines.
	parallel int
	// opsPerRound sizes a round to roughly 150–250 ms at the commit
	// that added the benchmark. It is a constant of the benchmark: the
	// same count runs on every commit.
	opsPerRound int
	// programs returns the workload's programs, unverified, in
	// canonical order.
	programs func() []*program
	// exec is one program's share of a batch op; start, set instead of
	// exec, turns verified programs into a running instance itself.
	exec  func(p *program, tr *tracer, parent int) outcome
	start func(w *workload, ps []*program, seed int64) (*instance, error)
	// probes measures, in a traced run, the layers this workload owns
	// and no others, so the four traced runs do not compute the same
	// workload-independent numbers four times.
	probes func(l *layers, ps []*program)
}

// instance is a workload after set-up, ready for timed rounds.
type instance struct {
	programs []*program
	// round runs one round and reports each op's raw duration.
	round func(tr *tracer) roundResult
	// layer reports counters only this workload's layers have, counted
	// since the instance started (nil for the batch workloads).
	layer func() map[string]float64
	close func()
}

type roundResult struct {
	opsMS  []float64
	work   int // programs (batch) or requests (serve) completed
	failed int // ops that errored or mismatched their reference
	// traced rounds recorded the spans [firstSpan, endSpan).
	traced             bool
	firstSpan, endSpan int
	// runs holds the ops' VM results, kept only when tracing (their
	// collector counters feed the layer metrics).
	runs []*vm.Result
	// reqs holds the serve workload's requests as client and server saw
	// them, likewise only when tracing.
	reqs []reqSample
}

var nproc = runtime.GOMAXPROCS(0)

var allWorkloads = []*workload{
	{
		name: "compile_cold", parallel: nproc, opsPerRound: 3,
		programs: func() []*program {
			var ps []*program
			for _, s := range workloadSources() {
				ps = append(ps, &program{source: s, name: s.key, opts: modeA(100)})
			}
			for _, s := range workloadSources() {
				o := modeA(0)
				o.Analysis.Interprocedural = true
				ps = append(ps, &program{source: s, name: s.key + "_ip", opts: o})
			}
			for _, s := range generatedSources(0, 12) {
				o := modeA(100)
				o.Analysis.Interprocedural = true
				ps = append(ps, &program{source: s, name: s.key, opts: o})
			}
			return ps
		},
		exec: func(p *program, tr *tracer, parent int) outcome {
			id := tr.start("pipeline.compile", parent)
			b, err := pipeline.Compile(p.name, p.src, p.opts)
			tr.end(id)
			return outcome{build: b, err: err}
		},
		probes: compilePath,
	},
	{
		name: "run_hot", parallel: 1, opsPerRound: 6,
		programs: func() []*program {
			return vmPrograms(func(int) vm.Config {
				return vm.Config{Engine: vm.EngineCompiled, Barrier: satb.ModeConditional, GC: vm.GCNone}
			})
		},
		exec: execute,
		probes: func(l *layers, _ []*program) {
			l.engines()
			l.barriers()
		},
	},
	{
		name: "gc_mark", parallel: 1, opsPerRound: 2,
		programs: func() []*program {
			// The pairing is fixed per program, before the seed orders the
			// sweep, so every run does the same work.
			pairings := []vm.Config{
				{Barrier: satb.ModeConditional, GC: vm.GCSATB},
				{Barrier: satb.ModeYuasa, GC: vm.GCSATB},
				{Barrier: satb.ModeHybrid, GC: vm.GCSATB},
				{Barrier: satb.ModeCardMarking, GC: vm.GCIncremental},
			}
			return vmPrograms(func(i int) vm.Config {
				c := pairings[i%len(pairings)]
				c.Engine = vm.EngineFused
				c.ForceMarkingAlways = true
				return c
			})
		},
		exec: execute,
		probes: func(l *layers, ps []*program) {
			l.collectors()
			l.gcShare(ps)
		},
	},
	{
		name: "satbd_serve", parallel: nproc, opsPerRound: 320,
		programs: servePrograms,
		start:    startServe,
		probes:   compilePath,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// vmPrograms is the program list the two VM workloads share: mode-A
// limit-100 builds of the six workloads plus twelve generated programs.
func vmPrograms(runtimeFor func(i int) vm.Config) []*program {
	var ps []*program
	for i, s := range append(workloadSources(), generatedSources(0, 12)...) {
		o := modeA(100)
		o.Runtime = runtimeFor(i)
		ps = append(ps, &program{source: s, name: s.key, opts: o})
	}
	return ps
}

// outcome is what one program's share of an op produced.
type outcome struct {
	build *pipeline.Build
	res   *vm.Result
	err   error
}

func (p *program) check(o outcome) bool {
	switch {
	case o.err != nil || p.bad:
		return false
	case o.res != nil:
		return o.res.Steps == p.steps && slices.Equal(o.res.Output, p.output)
	default:
		return fingerprintOf(o.build) == p.print
	}
}

// execute runs a prebuilt program under the workload's VM config.
// vm.New is inside the timed op on purpose: decoding is per run.
func execute(p *program, tr *tracer, parent int) outcome {
	id := tr.start("vm.decode", parent)
	m := vm.New(p.build.Program, p.opts.Runtime)
	tr.end(id)
	id = tr.start("vm.run", parent)
	res, err := m.Run()
	tr.end(id)
	return outcome{res: res, err: err}
}

// batch builds a closed-loop single-caller instance whose op is one
// sweep over every program in the seed's order. Outputs are checked
// after the op's clock stops.
func batch(ps []*program, seed int64, sweeps int, exec func(*program, *tracer, int) outcome) *instance {
	order := shuffled(ps, seed)
	outs := make([]outcome, len(order))
	return &instance{
		programs: ps,
		round: func(tr *tracer) roundResult {
			var r roundResult
			for s := 0; s < sweeps; s++ {
				op := tr.start("op", -1)
				t := time.Now()
				for i, p := range order {
					outs[i] = exec(p, tr, op)
				}
				r.opsMS = append(r.opsMS, ms(time.Since(t)))
				ok := true
				for i, p := range order {
					ok = p.check(outs[i]) && ok
					if tr != nil && outs[i].res != nil {
						r.runs = append(r.runs, outs[i].res)
					}
				}
				tr.end(op)
				if !ok {
					r.failed++
				}
				r.work += len(order)
			}
			return r
		},
		close: func() {},
	}
}
