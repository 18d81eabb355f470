// Package pipeline drives the end-to-end compile path the experiments
// use: parse → typecheck → codegen → inline(limit) → verify →
// analyze(mode) → run on the VM. It records per-stage times (the paper's
// §4.4 compile-time measurements) and compiled-code sizes including
// per-barrier expansion (Figure 3).
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/core"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
)

// BarrierInlineBytes models the machine-code footprint of one inline SATB
// barrier sequence (the paper's 9–12 RISC instructions, §1). Eliding a
// site saves this many bytes of compiled code.
const BarrierInlineBytes = 40

// CodeExpansionFactor models the machine-code bytes produced per bytecode
// byte by a client JIT; it scales the non-barrier part of the Figure 3
// code-size model.
const CodeExpansionFactor = 8

// Options is the single configuration surface for a build and its
// execution: compile-side knobs live directly on Options, analysis knobs
// in the Analysis sub-struct, and VM/runtime knobs in the Runtime
// sub-struct — a new knob is added in exactly one of those places, never
// mirrored.
type Options struct {
	// InlineLimit is the maximum callee bytecode size to inline
	// (paper §4.4: 0/25/50/100/200).
	InlineLimit int
	// Analysis selects the barrier analysis configuration (B/F/A and
	// extensions).
	Analysis core.Options
	// Runtime is the VM configuration Build.Exec runs under.
	Runtime vm.Config
	// Workers is the per-method fan-out width of analysis judging only
	// (intra-procedural after inlining, so methods are independent);
	// parsing, verification and summaries run on the calling goroutine.
	// <= 0 means GOMAXPROCS. Results are deterministic: reports and
	// elision bits are identical for any worker count.
	Workers int
	// NoCache disables the content-addressed build cache for this
	// compilation (it neither reads nor stores an entry). Use it when
	// measuring real compile times.
	NoCache bool
	// Cache selects the build cache instance to consult; nil means the
	// process-wide DefaultCache.
	Cache *Cache
}

// workerCount resolves the configured fan-out width.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Build is a compiled, analyzed program plus compile-time metrics.
type Build struct {
	Name    string
	Program *bytecode.Program
	Options Options

	// StageTime is each stage's wall time, indexed by Stage; a stage the
	// build skipped reads zero.
	StageTime [NumStages]time.Duration

	// BytecodeBytes is the post-inline bytecode size.
	BytecodeBytes int
	// InlinedCalls counts expanded call sites.
	InlinedCalls int
	// Report is the analysis report (nil for ModeNone).
	Report *core.ProgramReport
	// CacheHit reports that this Build was served from the build cache
	// (its stage times are the original compilation's).
	CacheHit bool

	// compiledCodeSize is CompiledCodeSize, counted once by compile.
	compiledCodeSize int
}

// CompileTime is the total compile-side time: the sum of the stage times.
func (b *Build) CompileTime() time.Duration {
	var t time.Duration
	for _, d := range b.StageTime {
		t += d
	}
	return t
}

// FormatStageTimes renders the stage times in table order, as "parse 1ms,
// typecheck 2ms, …".
func (b *Build) FormatStageTimes() string {
	parts := make([]string, NumStages)
	for s, d := range b.StageTime {
		parts[s] = fmt.Sprintf("%s %v", Stage(s), d)
	}
	return strings.Join(parts, ", ")
}

// CompiledCodeSize models total compiled code bytes: expanded bytecode
// plus the inline barrier sequence at every *kept* reference-store site
// (Figure 3's metric — elision shrinks code by 2–6% in the paper). It is a
// constant of the build, counted once when it was compiled.
func (b *Build) CompiledCodeSize() int { return b.compiledCodeSize }

// codeSizes measures a verified, analyzed program: its bytecode bytes and
// the compiled code size model's.
func codeSizes(p *bytecode.Program) (bytecodeBytes, compiled int) {
	syms, vt := p.Symbols(), p.Verdicts()
	for n, m := range syms.Methods {
		size := m.Size()
		bytecodeBytes += size
		compiled += size * CodeExpansionFactor
		fieldAt := p.Body(n).FieldAt
		for pc := range m.Code {
			in := &m.Code[pc]
			// A rearranged store trades the logging sequence for the
			// trace-state check, so only the stronger verdicts save bytes.
			_, site := satb.SiteOf(syms, in.Op, fieldAt[pc])
			if site && vt.At(n, pc) < bytecode.VerdictNullOrSame ||
				in.Op == bytecode.OpPutStatic && syms.Fields[fieldAt[pc]].IsRef {
				compiled += BarrierInlineBytes
			}
		}
	}
	return bytecodeBytes, compiled
}

// Compile builds a program from MiniJava source. Identical inputs (same
// source content, inline limit, and analysis options) are served from a
// content-addressed cache unless Options.NoCache is set.
func Compile(name, source string, opts Options) (*Build, error) {
	return CompileCtx(context.Background(), name, source, opts)
}

// CompileCtx is Compile under a caller context. Cancellation is observed
// before every stage (an error return) and inside the analysis fixed
// point (sound per-method degradation with DegradeCancelled — the build
// still succeeds, conservatively). Concurrent CompileCtx calls for
// the same key coalesce onto one compilation via the cache's singleflight
// layer; results degraded by a request's own deadline are never shared or
// cached, so no caller observes another caller's time budget.
func CompileCtx(ctx context.Context, name, source string, opts Options) (*Build, error) {
	if !opts.cacheable() {
		return compile(ctx, name, source, opts)
	}
	c := opts.cacheInstance()
	b, fromCache, err := c.do(opts.key(name, source), func() (*Build, error) {
		return compile(ctx, name, source, opts)
	})
	if err != nil {
		return nil, err
	}
	if fromCache {
		// The copy is caller-private: stamp the caller's Options on it
		// so Exec runs under the caller's Runtime config, not the
		// original compiler's.
		cp := *b
		cp.CacheHit = true
		cp.Options = opts
		return &cp, nil
	}
	return b, nil
}

// Stage numbers a stage of the compile path. The constants are the stage
// table: compile runs the stages in this order, analyze only under an
// analysis mode, and Build.StageTime is indexed by them.
type Stage uint8

const (
	StageParse Stage = iota
	StageTypecheck
	StageCodegen
	StageInline
	StageVerify
	StageAnalyze
	NumStages
)

var stageNames = [NumStages]string{"parse", "typecheck", "codegen", "inline", "verify", "analyze"}

// String is the stage's name, which is also its span's.
func (s Stage) String() string { return stageNames[s] }

// compile is the uncached compile path. It runs the stage table, and for
// each stage polls the context, traces and times the stage, and wraps its
// error.
func compile(ctx context.Context, name, source string, opts Options) (*Build, error) {
	b := &Build{Name: name, Options: opts}
	file, last := name+".mj", NumStages
	if opts.Analysis.Mode == core.ModeNone {
		last = StageAnalyze
	}
	var ast *minijava.Program
	var checked *minijava.Checked
	for s := range last {
		err := ctx.Err()
		if err == nil {
			sp := obs.StartSpan("main", "pipeline", s.String())
			start := time.Now()
			switch s {
			case StageParse:
				ast, err = minijava.Parse(file, source)
			case StageTypecheck:
				checked, err = minijava.Check(file, ast)
			case StageCodegen:
				b.Program, err = codegen.Compile(checked)
				// Nothing of the bytecode points into the tree, so the
				// next parse may take its memory.
				ast.Release()
			case StageInline:
				ir := inline.Apply(b.Program, inline.Options{Limit: opts.InlineLimit})
				b.Program, b.InlinedCalls = ir.Program, ir.Expanded
			case StageVerify:
				err = verifier.VerifyProgram(b.Program)
			case StageAnalyze:
				b.Report, err = core.AnalyzeProgramCtx(ctx, b.Program, opts.Analysis, opts.workerCount())
			}
			sp.EndArgs(obs.KV{K: "program", S: name})
			b.StageTime[s] = time.Since(start)
		}
		if err != nil {
			ast.Release()
			return nil, fmt.Errorf("pipeline %s: %w", name, err)
		}
	}
	b.BytecodeBytes, b.compiledCodeSize = codeSizes(b.Program)
	return b, nil
}

// Run executes the built program on the VM under an explicit config: the
// form for running one build under several runtime configurations, as the
// engine and flavor differentials do. Exec is for a caller that fixed the
// runtime when it compiled (Options.Runtime), as the CLIs and reports do.
func (b *Build) Run(cfg vm.Config) (*vm.Result, error) {
	return vm.New(b.Program, cfg).Run()
}

// Exec executes the built program on the VM under Options.Runtime.
func (b *Build) Exec() (*vm.Result, error) {
	return vm.New(b.Program, b.Options.Runtime).Run()
}
