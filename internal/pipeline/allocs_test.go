package pipeline

import (
	"runtime"
	"runtime/debug"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/workloads"
)

// TestCompileAllocs gates the allocation count and bytes of a whole
// uncached Compile — lexer, parser, checker, codegen, inliner, verifier,
// summaries and analysis — the way core.TestAnalyzeAllocs gates the
// analysis alone: jbb at inline limit 100 (front end and inliner dominate)
// and jess at limit 0 with summaries (the most analyzer runs). With one
// worker nothing in the path depends on scheduling, so two measurements
// must agree exactly. The ceilings sit about 15 % above the measured
// figures:
//
//	              the parse's memory the last     the compile path one stage
//	              parse's (a recycled arena)      table, one file name
//	jbb@100       505 allocs, 150 672 B           556 allocs, 215 688 B
//	jess@0        551 allocs,  92 496 B           600 allocs, 140 744 B
//
// Before the parse took the arena the last compile released, its slabs
// were sized by a counting pass over the tokens and its tokens were its
// own. With the domain a package they were 562 allocs and 215 665 B, and
// 604 allocs and 140 721 B. With the condensation still holding component
// dependency lists they were 562 allocs and 216 449 B, and 604 allocs and
// 141 729 B. With 24-byte instructions naming operands by pool index,
// 20-byte tokens and one-pass reference tables they were 564 allocs and
// 217 073 B, and 607 allocs and 142 232 B; with 96-byte instructions
// holding their operands and 48-byte tokens 584 allocs and 357 041 B, and
// 617 allocs and 203 049 B.
//
// Earlier counts were jbb 596 and jess 620; 917 and 854 while codegen
// allocated per label and per class, the
// inliner cloned the program and grew each caller by doubling, the call
// graph and its condensation allocated per node and per component, and a
// method body took nine allocations; 1 420 and 1 284 while a reference set
// was a slice, each join built its
// own merge context and each analyzer its own slot table, scratch states,
// worklist and judge states, and 1 412 and 1 279 before the analysis
// installed its verdicts as one table; 2 267 and 1 811 while the parser
// allocated each node, the checker each scope and class type, and the
// verifier each block's stack; 2 301 and 1 838 while the verifier and the
// analysis each built a method's graph and resolved its operands, 2 368
// and 1 962 while every summary round and judging pass built its own
// reference table, 2 471 and 2 047 while
// every layer numbered the program's methods and fields for itself, 2 552
// and 2 235 while every analyzer did, 4 165 and 3 743 before the lexer
// sliced its source and summaries were computed on demand.
func TestCompileAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, a few objects more or less per run")
	}
	for _, tc := range []struct {
		workload string
		limit    int
		analysis core.Options
		ceiling  float64
		bytesMax uint64
	}{
		{"jbb", 100, core.Options{Mode: core.ModeFieldArray}, 581, 173_000},
		{"jess", 0, core.Options{Mode: core.ModeFieldArray, Interprocedural: true}, 634, 106_500},
	} {
		w, err := workloads.Get(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{InlineLimit: tc.limit, Analysis: tc.analysis, NoCache: true, Workers: 1}
		compile := func() {
			if _, err := Compile(w.Name, w.Source, opts); err != nil {
				t.Fatal(err)
			}
		}
		measure := func() float64 {
			// The Go collector's first cycle allocates its workers.
			runtime.GC()
			return testing.AllocsPerRun(5, compile)
		}
		first, second := measure(), measure()
		bytes, bytes2 := bytesPerRun(5, compile), bytesPerRun(5, compile)
		t.Logf("%s@%d: %.0f allocs and %d bytes per Compile", tc.workload, tc.limit, first, bytes)
		if first != second {
			t.Errorf("%s@%d: allocation count does not repeat: %.0f then %.0f", tc.workload, tc.limit, first, second)
		}
		if first > tc.ceiling {
			t.Errorf("%s@%d: %.0f allocs per Compile, ceiling %.0f", tc.workload, tc.limit, first, tc.ceiling)
		}
		if bytes != bytes2 {
			t.Errorf("%s@%d: allocated bytes do not repeat: %d then %d", tc.workload, tc.limit, bytes, bytes2)
		}
		if bytes > tc.bytesMax {
			t.Errorf("%s@%d: %d bytes per Compile, ceiling %d", tc.workload, tc.limit, bytes, tc.bytesMax)
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
