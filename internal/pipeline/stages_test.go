package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/obs"
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
