package inline

import (
	"runtime"
	"testing"

	"satbelim/internal/workloads"
)

// TestApplyAllocs: Apply rewrites in place, so at limit 0 — every build
// of the interprocedural configurations — it allocates nothing but its
// Result, where it used to clone the whole program. The count must repeat
// exactly.
func TestApplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, a few objects more or less per run")
	}
	w, err := workloads.Get("jess")
	if err != nil {
		t.Fatal(err)
	}
	p := compileSrc(t, w.Source)
	measure := func() float64 {
		// The Go collector's first cycle allocates its workers.
		runtime.GC()
		return testing.AllocsPerRun(5, func() { Apply(p, Options{Limit: 0}) })
	}
	first, second := measure(), measure()
	if first != second {
		t.Errorf("allocation count does not repeat: %.0f then %.0f", first, second)
	}
	if first > 1 {
		t.Errorf("%.0f allocs per Apply at limit 0, want 1 (the Result)", first)
	}
}
