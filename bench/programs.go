package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// corpusBase seeds the generated half of the corpus. It is a constant,
// not the run's --seed: programs drawn from different generator seeds
// differ by ±15 % in compile time and 30–37 % in static elimination, so
// a seed-drawn corpus would bury every metric under input variation. The
// run's seed decides the order of work instead (sweep order, request
// stream), which leaves the total work of a run the same.
const corpusBase = 20050320

// source is one input program, before any workload decides how to build
// it.
type source struct {
	key string
	src string
}

func workloadSources() []source {
	var out []source
	for _, w := range workloads.All() {
		out = append(out, source{w.Name, w.Source})
	}
	return out
}

// generatedSources returns corpus programs [from, to). Mutual recursion
// and deep call chains are on (CampaignConfig), so the interprocedural
// summaries and the SCC fixed point have work to do.
func generatedSources(from, to int) []source {
	var out []source
	for i := from; i < to; i++ {
		out = append(out, source{fmt.Sprintf("gen%02d", i), progen.Generate(corpusBase+int64(i), progen.CampaignConfig())})
	}
	return out
}

// program is a source under one workload's build and run options, plus
// what set-up learned about it.
type program struct {
	source
	name string           // compile name (part of the cache key)
	opts pipeline.Options // the workload's own build; Runtime is the timed VM config

	build *pipeline.Build
	// Reference facts from set-up's verification, compared on every
	// timed op.
	output []int64
	steps  int64
	print  fingerprint
	// bad records a set-up mismatch; every op that touches the program
	// then counts as failed.
	bad bool

	// From the verification execution (CheckElisions + CheckInvariant).
	barrierExecs, elidedExecs uint64
	modelCost                 uint64
}

// fingerprint is what a compile's output is checked by when the timed
// region runs no VM: every deterministic size and count the build
// reports.
type fingerprint struct {
	bytecodeBytes, inlinedCalls, sites, elided, codeSize int
}

func fingerprintOf(b *pipeline.Build) fingerprint {
	f := fingerprint{bytecodeBytes: b.BytecodeBytes, inlinedCalls: b.InlinedCalls, codeSize: b.CompiledCodeSize()}
	if b.Report != nil {
		fs, as, fe, ae, _ := b.Report.Totals()
		f.sites, f.elided = fs+as, fe+ae
	}
	return f
}

func modeA(limit int) pipeline.Options {
	return pipeline.Options{InlineLimit: limit, Analysis: core.Options{Mode: core.ModeFieldArray}, NoCache: true}
}

// verifyConfig is the VM configuration of set-up's second execution:
// the elision oracle and the snapshot invariant armed, with marking
// cycles actually happening so the invariant has something to check.
var verifyConfig = vm.Config{
	Engine:             vm.EngineFused,
	Barrier:            satb.ModeConditional,
	GC:                 vm.GCSATB,
	TriggerEveryAllocs: 500,
	CheckElisions:      true,
	CheckInvariant:     true,
}

// digestKey names the program's digest in testdata/expected.json. The
// inline limit is part of it: mtrt's two threads interleave by executed
// instruction count, so its output depends on what was inlined.
func (p *program) digestKey() string { return fmt.Sprintf("%s@%d", p.key, p.opts.InlineLimit) }

// verify establishes the program's reference: once on the switch
// interpreter from a build with no analysis (the path that shares
// nothing with what is being optimised), checked against the committed
// digest, then once from the workload's own build with the soundness
// oracles armed. A mismatch marks the program bad instead of aborting,
// so it surfaces as failed ops.
func (p *program) verify(exp map[string]string) error {
	base, err := pipeline.Compile(p.name, p.src, pipeline.Options{InlineLimit: p.opts.InlineLimit, NoCache: true})
	if err != nil {
		return fmt.Errorf("reference build of %s: %w", p.key, err)
	}
	ref, err := vm.New(base.Program, vm.Config{Engine: vm.EngineSwitch, Barrier: satb.ModeConditional}).Run()
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", p.key, err)
	}
	p.output = ref.Output
	if exp != nil && digest(ref.Output) != exp[p.digestKey()] {
		p.bad = true
	}

	p.build, err = pipeline.Compile(p.name, p.src, p.opts)
	if err != nil {
		return fmt.Errorf("build of %s: %w", p.key, err)
	}
	p.print = fingerprintOf(p.build)
	res, err := vm.New(p.build.Program, verifyConfig).Run()
	if err != nil {
		return fmt.Errorf("verification run of %s: %w", p.key, err)
	}
	if !slices.Equal(res.Output, ref.Output) {
		p.bad = true
	}
	p.steps = res.Steps
	sum := res.Counters.Summarize()
	p.barrierExecs, p.elidedExecs = sum.TotalExecs, sum.ElidedExecs
	p.modelCost = res.TotalCost()
	return nil
}

// facts are the workload's deterministic end-to-end metrics, summed over
// its programs.
type facts struct {
	elimStaticPct, elimDynamicPct, modelCostPerWork, codeKBPerWork float64
}

func factsOf(ps []*program) facts {
	var sites, elided, code int
	var execs, elidedExecs, cost uint64
	for _, p := range ps {
		sites += p.print.sites
		elided += p.print.elided
		code += p.print.codeSize
		execs += p.barrierExecs
		elidedExecs += p.elidedExecs
		cost += p.modelCost
	}
	n := float64(len(ps))
	return facts{
		elimStaticPct:    100 * float64(elided) / float64(sites),
		elimDynamicPct:   100 * float64(elidedExecs) / float64(execs),
		modelCostPerWork: float64(cost) / n,
		codeKBPerWork:    float64(code) / 1024 / n,
	}
}

// shuffled returns ps in the order the run's seed decides.
func shuffled(ps []*program, seed int64) []*program {
	out := slices.Clone(ps)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func digest(output []int64) string {
	h := sha256.New()
	var buf []byte
	for _, v := range output {
		buf = strconv.AppendInt(buf[:0], v, 10)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func expectedPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "expected.json")
}

func loadExpected(root string) (map[string]string, error) {
	data, err := os.ReadFile(expectedPath(root))
	if err != nil {
		return nil, err
	}
	exp := map[string]string{}
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(root), err)
	}
	return exp, nil
}

// updateExpected regenerates testdata/expected.json. It refuses unless,
// for every program of every workload, the switch/ModeNone reference and
// the workload's own build print the same output.
func updateExpected(root string) error {
	exp := map[string]string{}
	for _, w := range allWorkloads {
		for _, p := range w.programs() {
			if err := p.verify(nil); err != nil {
				return err
			}
			if p.bad {
				return fmt.Errorf("%s: %s: reference and own build disagree; not updating", w.name, p.key)
			}
			d := digest(p.output)
			if prev, ok := exp[p.digestKey()]; ok && prev != d {
				return fmt.Errorf("%s: %s: digest differs between workloads", w.name, p.digestKey())
			}
			exp[p.digestKey()] = d
		}
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(expectedPath(root), append(data, '\n'))
}
