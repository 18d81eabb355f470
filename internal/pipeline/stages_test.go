package pipeline

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/minijava"
	"satbelim/internal/obs"
	"satbelim/internal/workloads"
)

// TestStageTableIsTheCompilePath: an uncached build records exactly the
// table's pipeline spans, in table order, and one duration per stage that
// ran — analyze only under an analysis mode, and nothing after the stage
// that failed.
func TestStageTableIsTheCompilePath(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("collector unexpectedly enabled at test start")
	}
	all := []Stage{StageParse, StageTypecheck, StageCodegen, StageInline, StageVerify, StageAnalyze}
	for _, tc := range []struct {
		name, src string
		mode      core.Mode
		want      []Stage
		fails     bool
	}{
		{"mode F", src, core.ModeField, all, false},
		{"mode none", src, core.ModeNone, all[:StageAnalyze], false},
		{"typecheck error", `class A { static void main() { x = 1; } }`, core.ModeField, all[:StageCodegen], true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := obs.Enable()
			b, err := Compile("t", tc.src, Options{InlineLimit: 100, Analysis: core.Options{Mode: tc.mode}, NoCache: true})
			obs.Disable()
			var spans []string
			for _, ev := range c.Events() {
				if ev.Cat == "pipeline" {
					spans = append(spans, ev.Name)
				}
			}
			var want []string
			for _, s := range tc.want {
				want = append(want, s.String())
			}
			if !slices.Equal(spans, want) {
				t.Errorf("pipeline spans %v, want %v", spans, want)
			}
			if tc.fails {
				if err == nil || b != nil {
					t.Fatalf("build %v, err %v: want no build and an error", b, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for s, d := range b.StageTime {
				if ran := Stage(s) < Stage(len(tc.want)); ran != (d > 0) {
					t.Errorf("%s: %v (ran: %v)", Stage(s), d, ran)
				}
				sum += int64(d)
			}
			if int64(b.CompileTime()) != sum {
				t.Errorf("CompileTime %v is not the sum of the stage times %v", b.CompileTime(), b.StageTime)
			}
		})
	}
}

// pollCtx is a context whose Err reports context.Canceled from its k-th
// poll on (counting from zero): a cancellation that lands at a chosen
// point of the compile path, without a timer.
type pollCtx struct {
	context.Context
	polls, k int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.k {
		return context.Canceled
	}
	return nil
}

// TestCompileCtxStopsBetweenStages: a context that ends before any stage
// stops the build there with the context's error, no build, and nothing
// stored in the cache.
func TestCompileCtxStopsBetweenStages(t *testing.T) {
	cache := NewCache(8)
	opts := Options{InlineLimit: 100, Analysis: core.Options{Mode: core.ModeField}, Cache: cache}
	if _, err := Compile("other", cacheTestSrc, opts); err != nil {
		t.Fatal(err)
	}
	entries := cache.Stats().Entries
	for k := 0; k < int(NumStages); k++ {
		ctx := &pollCtx{Context: context.Background(), k: k}
		b, err := CompileCtx(ctx, "t", src, opts)
		if !errors.Is(err, context.Canceled) || b != nil {
			t.Errorf("cancelled before %s: build %v, err %v; want no build and context.Canceled", Stage(k), b, err)
		}
		if ctx.polls != k+1 {
			t.Errorf("cancelled before %s: the context was polled %d times, want %d", Stage(k), ctx.polls, k+1)
		}
		if got := cache.Stats().Entries; got != entries {
			t.Errorf("cancelled before %s: cache holds %d entries, want %d", Stage(k), got, entries)
		}
	}
}

// TestFailedCompileReleasesItsParse: a compile that fails after its parse —
// a context that ends before typecheck or before codegen, or a type error —
// still hands the parse's memory to the next one. A warm failed compile
// allocates what its stages allocate, and no arena: one that failed to
// release would take a new one each time, about 80 allocations more on
// jbb (its slabs, scratch stacks and token buffer). The ceilings sit about
// 20 % above the measured counts.
func TestFailedCompileReleasesItsParse(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, and its sync.Pool drops a quarter of what it is given")
	}
	w, err := workloads.Get("jbb")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}, NoCache: true, Workers: 1}
	// A method with a type error, last in the last class, so the checker
	// has walked the whole program when it fails.
	end := strings.LastIndex(w.Source, "}")
	bad := w.Source[:end] + "static void bad() { int x = true; }\n}\n"
	for _, tc := range []struct {
		name    string
		src     string
		ctx     func() context.Context
		ceiling float64
	}{
		{"cancelled before typecheck", w.Source, func() context.Context { return &pollCtx{Context: context.Background(), k: 1} }, 10},
		{"cancelled before codegen", w.Source, func() context.Context { return &pollCtx{Context: context.Background(), k: 2} }, 94},
		{"a type error", bad, context.Background, 97},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			_, err := CompileCtx(tc.ctx(), w.Name, tc.src, opts)
			var te *minijava.TypeError
			if tc.src == bad && !errors.As(err, &te) || tc.src != bad && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err %v", tc.name, err)
			}
		})
		t.Logf("%s: %.0f allocs", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocs per failed compile, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
