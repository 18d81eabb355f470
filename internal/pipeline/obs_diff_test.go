package pipeline

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// compileAndExec does a fresh (uncached) compile + run of a workload under
// the given runtime config and returns the build and result.
func compileAndExec(t *testing.T, name string, rt vm.Config) (*Build, *vm.Result) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(w.Name, w.Source, Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		Runtime:     rt,
		NoCache:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

// TestTracingIsObservationOnly proves the observability layer never
// perturbs semantics: a run with the collector enabled must be
// bit-identical — output, step counts, every barrier counter, every
// per-site statistic, GC totals — to the same run with tracing disabled.
func TestTracingIsObservationOnly(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("collector unexpectedly enabled at test start")
	}
	configs := []struct {
		name string
		rt   vm.Config
	}{
		{"plain", vm.Config{Barrier: satb.ModeConditional}},
		{"gc-oracle", vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 128,
			CheckInvariant:     true,
			CheckElisions:      true,
		}},
		{"switch-engine", vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineSwitch}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			bOff, off := compileAndExec(t, "jbb", cfg.rt)

			c := obs.Enable()
			bOn, on := compileAndExec(t, "jbb", cfg.rt)
			obs.Disable()

			if !reflect.DeepEqual(off.Output, on.Output) {
				t.Errorf("output diverged: %v vs %v", off.Output, on.Output)
			}
			if off.Steps != on.Steps {
				t.Errorf("steps diverged: %d vs %d", off.Steps, on.Steps)
			}
			if !reflect.DeepEqual(off.Counters, on.Counters) {
				t.Errorf("barrier counters diverged:\noff: %+v\non:  %+v",
					off.Counters.Summarize(), on.Counters.Summarize())
			}
			if off.Cycles != on.Cycles || off.FinalPauseWork != on.FinalPauseWork ||
				off.Allocated != on.Allocated || off.Swept != on.Swept ||
				off.ElisionChecks != on.ElisionChecks {
				t.Errorf("GC/oracle stats diverged: off=%+v on=%+v", off, on)
			}
			if off.TotalCost() != on.TotalCost() {
				t.Errorf("total cost diverged: %d vs %d", off.TotalCost(), on.TotalCost())
			}
			// The analysis result itself must match too.
			offT := totals(bOff)
			onT := totals(bOn)
			if offT != onT {
				t.Errorf("analysis totals diverged: %v vs %v", offT, onT)
			}
			// And the enabled run must actually have recorded something —
			// otherwise this test is vacuous.
			if len(c.Events()) == 0 {
				t.Error("enabled collector recorded no events")
			}
			if len(c.Counters()) == 0 {
				t.Error("enabled collector recorded no counters")
			}
			// The decoded engines report how many quantum boundaries their
			// scheduler did not visit. jbb is single-threaded, so turns and
			// skipped boundaries add up to every boundary of the run (plus
			// one empty turn if the thread ended exactly on one).
			if cfg.rt.Engine != vm.EngineSwitch {
				cs := c.Counters()
				turns, skipped := cs["vm.sched.turns"], cs["vm.sched.boundaries_skipped"]
				all := (on.Steps + 63) / 64
				if skipped == 0 || turns+skipped < all || turns+skipped > all+1 {
					t.Errorf("vm.sched: %d turns + %d skipped boundaries, want %d boundaries in all and some skipped", turns, skipped, all)
				}
			}
		})
	}
}

type reportTotals struct {
	fieldSites, arraySites, fieldElided, arrayElided, nullOrSame int
}

func totals(b *Build) reportTotals {
	var t reportTotals
	if b.Report != nil {
		t.fieldSites, t.arraySites, t.fieldElided, t.arrayElided, t.nullOrSame = b.Report.Totals()
	}
	return t
}

// TestInjectableCacheIsolation verifies that a caller-supplied cache is
// fully isolated from the process-default one and from other instances.
func TestInjectableCacheIsolation(t *testing.T) {
	priv := NewCache(8)
	other := NewCache(8)
	before := DefaultCache.Stats()

	opts := Options{InlineLimit: 50, Cache: priv}
	b1, err := Compile("cacheinject", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b1.CacheHit {
		t.Error("first compile in a fresh private cache must miss")
	}
	b2, err := Compile("cacheinject", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.CacheHit {
		t.Error("recompile against the private cache must hit")
	}
	if s := priv.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("private cache stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	if s := other.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("unrelated cache instance touched: %+v", s)
	}
	after := DefaultCache.Stats()
	if after != before {
		t.Errorf("default cache touched by private-cache compiles: before=%+v after=%+v", before, after)
	}

	// The same compile against a different instance misses independently.
	b3, err := Compile("cacheinject", cacheTestSrc, Options{InlineLimit: 50, Cache: other})
	if err != nil {
		t.Fatal(err)
	}
	if b3.CacheHit {
		t.Error("fresh cache instance must not share entries")
	}
}

// TestCacheHitCarriesCallerRuntime pins the rule that a cache hit adopts
// the calling compile's Options — in particular its Runtime — rather than
// the config of whichever compile populated the entry.
func TestCacheHitCarriesCallerRuntime(t *testing.T) {
	cache := NewCache(8)
	base := Options{InlineLimit: 50, Cache: cache}

	first := base
	first.Runtime = vm.Config{Barrier: satb.ModeAlwaysLog}
	if _, err := Compile("rtstamp", cacheTestSrc, first); err != nil {
		t.Fatal(err)
	}

	second := base
	second.Runtime = vm.Config{Barrier: satb.ModeNoBarrier}
	b, err := Compile("rtstamp", cacheTestSrc, second)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("second compile must hit (Runtime is not part of the cache key)")
	}
	if b.Options.Runtime.Barrier != satb.ModeNoBarrier {
		t.Errorf("cache hit kept the populating compile's Runtime: %+v", b.Options.Runtime)
	}
	res, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Logged != 0 {
		t.Errorf("Exec ran under the wrong barrier mode: %d log entries under ModeNoBarrier", res.Counters.Logged)
	}
}
