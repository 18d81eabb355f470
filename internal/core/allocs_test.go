package core_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/workloads"
)

// TestAnalyzeAllocs gates the analysis's allocation count and bytes in
// tier-1, so a regression fails here and not only in the benchmark: javac at
// inline limit 100 (the largest method bodies) and jess at limit 0 with
// summaries (the most analyzer runs). Every reused buffer belongs to one
// worker of one AnalyzeProgram call, and both measurements run at GOMAXPROCS
// 1, so there is one worker and the figures are a function of the program
// alone: two measurements must agree exactly. The ceilings sit about 15 %
// above the measured figures:
//
//	              the domain a package (an        condensation without component
//	              analyzer holds no Options)      dependency lists
//	javac@100     232 allocs,  75 376 B           232 allocs,  76 080 B
//	jess@0        373 allocs,  55 873 B           373 allocs,  56 881 B
//
// With reference tables sized by a counting pass they were 232 allocs and
// 76 080 B, and 376 allocs and 57 384 B. A reference table's list of
// references grew by appending, one method at a time, when they were
//
//	              entry states at joins only     an entry state per block
//	              (single-predecessor entries    (64-byte Value, 32-byte
//	              lent by the worker)            IntVal)
//	javac@100     258 allocs,  77 473 B          282 allocs, 135 897 B
//	jess@0        394 allocs,  58 505 B          397 allocs,  72 249 B
//
// With an 88-byte Value and a 48-byte IntVal (a term list was a slice) they
// were 294 allocs and 175 369 B, and 397 allocs and 90 393 B.
//
// Earlier allocation ceilings sat about 15 % above javac 294 and jess 429 (a
// reference set is a word, each join resets one merge context,
// and slot tables, scratch states, worklists and judge states live in one
// workspace per worker). With a
// RefSet of a slice, three maps per join and those buffers made per
// analyzer they were 675 and 859, and 673 and 857 before the analysis
// installed its verdicts as one table (the program holds each method's
// graph and operand numbers, built by the verifier). With a graph and an
// operand row built per AnalyzeProgram call they were 732 and 904, with a
// reference table of six maps built per summary round and per judging pass
// 790 and 1 028, with a field table and a call graph index built per
// AnalyzeProgram call 821 and 1 084, with a field table interned per
// analyzer, names and two maps each, 888 and 1 272; before summaries were
// computed on demand, graphs shared between summary and judging mode and
// built from slabs, and entry states cut from slabs, 1 299 and 1 916; the
// map-based copy-on-write state needed 2 167 and 2 894, give or take one
// between measurements.
func TestAnalyzeAllocs(t *testing.T) {
	for _, tc := range []struct {
		workload string
		limit    int
		opts     core.Options
		ceiling  float64
		bytesMax uint64
	}{
		{"javac", 100, core.Options{Mode: core.ModeFieldArray}, 267, 87_500},
		{"jess", 0, core.Options{Mode: core.ModeFieldArray, Interprocedural: true}, 429, 65_500},
	} {
		w, err := workloads.Get(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: tc.limit, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		analyze := func() {
			if _, err := core.AnalyzeProgram(b.Program, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		first, second := testing.AllocsPerRun(5, analyze), testing.AllocsPerRun(5, analyze)
		bytes, bytes2 := bytesPerRun(5, analyze), bytesPerRun(5, analyze)
		t.Logf("%s@%d: %.0f allocs and %d bytes per AnalyzeProgram", tc.workload, tc.limit, first, bytes)
		if first != second {
			t.Errorf("%s@%d: allocation count does not repeat: %.0f then %.0f", tc.workload, tc.limit, first, second)
		}
		if first > tc.ceiling {
			t.Errorf("%s@%d: %.0f allocs per AnalyzeProgram, ceiling %.0f", tc.workload, tc.limit, first, tc.ceiling)
		}
		if bytes != bytes2 {
			t.Errorf("%s@%d: allocated bytes do not repeat: %d then %d", tc.workload, tc.limit, bytes, bytes2)
		}
		if bytes > tc.bytesMax {
			t.Errorf("%s@%d: %d bytes per AnalyzeProgram, ceiling %d", tc.workload, tc.limit, bytes, tc.bytesMax)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the Go heap bytes one call
// of f allocates, averaged over runs after a warm-up call, with one worker
// and the Go collector off (a collection cycle allocates its own).
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
