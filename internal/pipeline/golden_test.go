package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// The dump goldens pin two sha256 hashes each: one of the verdict dump,
// everything the compile path decides, and one of the visit dump, how many
// block visits the fixed points took to decide it. A refactor of
// internal/core that claims "behaviour byte-identical" leaves all four
// unchanged; one that claims "same verdicts, different iteration" (a
// changed worklist or entry-state discipline) re-pins only the visit
// hashes, and says by how much the visit totals moved. The verdict and
// visit hashes were taken with this file unchanged at the commit before
// entry states were kept only at joins.
const (
	verdictDumpGolden  = "a355591c109fe66a6581b88278a37d57ebd781a81ac19fb4b5b9288661fc3939"
	verdictVisitGolden = "938d6bfc4617f431b44655ebc66fa36cef4e633883eab2e9e3dc656aae0be689"
)

// dumpBuild writes what the compile path decides about one build to w —
// the annotated disassembly, every MethodReport column but the visits, the
// totals and the modelled code size — and the fixed points' block visits,
// per method and in total, to visits.
func dumpBuild(w, visits io.Writer, b *Build) {
	fmt.Fprint(w, bytecode.DisassembleProgram(b.Program))
	for _, mr := range b.Report.Methods {
		fmt.Fprintf(w, "%s fs=%d as=%d fe=%d ae=%d nos=%d rearr=%d conv=%t refs=%d bytes=%d sumcalls=%d fresh=%d degraded=%q detail=%q\n",
			mr.Method.QualifiedName(), mr.FieldSites, mr.ArraySites, mr.FieldElided, mr.ArrayElided,
			mr.NullOrSame, mr.Rearranged, mr.Converged, mr.AbstractRefs, mr.BytecodeBytes,
			mr.SummaryCalls, mr.FreshReturns, mr.Degraded, mr.DegradeDetail)
		fmt.Fprintf(visits, "%s visits=%d\n", mr.Method.QualifiedName(), mr.BlockVisits)
	}
	fs, as, fe, ae, nos := b.Report.Totals()
	fmt.Fprintf(w, "totals fs=%d as=%d fe=%d ae=%d nos=%d inlined=%d bytecode=%d code=%d\n",
		fs, as, fe, ae, nos, b.InlinedCalls, b.BytecodeBytes, b.CompiledCodeSize())
	fmt.Fprintf(visits, "totals visits=%d\n", b.Report.BlockVisits())
}

// dumpHashes hashes a verdict dump and a visit dump side by side; each
// build's header goes to both.
type dumpHashes struct{ verdicts, visits hash.Hash }

func newDumpHashes() dumpHashes { return dumpHashes{sha256.New(), sha256.New()} }

func (d dumpHashes) build(b *Build, header string, args ...any) {
	fmt.Fprintf(d.verdicts, header, args...)
	fmt.Fprintf(d.visits, header, args...)
	dumpBuild(d.verdicts, d.visits, b)
}

// check fails t unless the two hashes are the pinned ones.
func (d dumpHashes) check(t *testing.T, what, verdicts, visits string) {
	t.Helper()
	if got := hex.EncodeToString(d.verdicts.Sum(nil)); got != verdicts {
		t.Errorf("%s verdict dump hash %s, want %s", what, got, verdicts)
	}
	if got := hex.EncodeToString(d.visits.Sum(nil)); got != visits {
		t.Errorf("%s visit dump hash %s, want %s", what, got, visits)
	}
}

// TestVerdictDumpGolden hashes dumpBuild over the six workloads × {inline
// limit 100, limit 25, limit 0 with summaries} × {A, A with null-or-same
// and rearrange}: 36 builds, every verdict and every report column.
func TestVerdictDumpGolden(t *testing.T) {
	h := newDumpHashes()
	builds := 0
	for _, w := range workloads.All() {
		for _, cfg := range []struct {
			limit     int
			interproc bool
		}{{100, false}, {25, false}, {0, true}} {
			for _, ext := range []bool{false, true} {
				b, err := Compile(w.Name, w.Source, Options{
					InlineLimit: cfg.limit,
					Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: cfg.interproc,
						NullOrSame: ext, Rearrange: ext},
					NoCache: true,
				})
				if err != nil {
					t.Fatalf("%s@%d: %v", w.Name, cfg.limit, err)
				}
				h.build(b, "== %s limit=%d interproc=%t ext=%t\n", w.Name, cfg.limit, cfg.interproc, ext)
				builds++
			}
		}
	}
	h.check(t, fmt.Sprintf("%d builds:", builds), verdictDumpGolden, verdictVisitGolden)
}

// The summary dump's hashes, as TestSummaryDumpGolden computes them.
const (
	summaryDumpGolden  = "4033833ace4629e0aebbebd8a75cd1e4b3c8b17274eb9f969a9fae61a78e771a"
	summaryVisitGolden = "b7dcef09fc2d4b5f7da756e40bdda570ae6da105bcb6a81eaddb6ea991167c7f"
)

// TestSummaryDumpGolden hashes dumpBuild over summary-heavy generated
// programs — mutual recursion and deep call chains, which the six workloads
// lack — at inline limits 0 and 100 × {summaries, + one reference per
// allocation site, + null-or-same and rearrange}: 240 builds in which the
// summary fixed point decides what judging may trust.
func TestSummaryDumpGolden(t *testing.T) {
	h := newDumpHashes()
	for seed, src := range progen.Corpus(2900, 40, progen.CampaignConfig()) {
		for _, limit := range []int{0, 100} {
			for ext, opts := range []core.Options{
				{Mode: core.ModeFieldArray, Interprocedural: true},
				{Mode: core.ModeFieldArray, Interprocedural: true, SingleRefPerSite: true},
				{Mode: core.ModeFieldArray, Interprocedural: true, NullOrSame: true, Rearrange: true},
			} {
				b, err := Compile(fmt.Sprintf("gen%d", seed), src, Options{InlineLimit: limit, Analysis: opts, NoCache: true})
				if err != nil {
					t.Fatalf("seed %d limit %d: %v", seed, limit, err)
				}
				h.build(b, "== seed=%d limit=%d opts=%d\n", seed, limit, ext)
			}
		}
	}
	h.check(t, "summary", summaryDumpGolden, summaryVisitGolden)
}
