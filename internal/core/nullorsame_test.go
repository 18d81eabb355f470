package core_test

import (
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// summaryKeySrc stores, into the newest Node y, a value v loaded from an
// older Node z. Both z and y were allocated at the same site, so by the
// time of the store z is named by the site's summary reference R_B and v
// carries the null-or-same key (R_B, f). Once y, too, has been demoted
// into R_B (it is the previous iteration's x), the store y.f = v targets
// R_B, and the key names a different object than the one stored into: y.f
// holds y's own Obj, not v.
const summaryKeySrc = `
class Obj { int v; }
class Node { Obj f; }
class T {
  static void main() {
    Node x = null; Node y = null; Node z = null;
    int i = 0;
    while (i < 4) {
      z = y; y = x; x = new Node(); x.f = new Obj();
      if (i >= 2) { Obj v = z.f; y.f = v; }
      i = i + 1;
    }
    print(i);
  }
}
`

// TestNullOrSameNeedsAUniqueTarget: a null-or-same guarantee about a summary
// reference says nothing about the object a store targets, so the store
// y.f = v keeps its barrier, and the program runs clean under the oracle
// and the snapshot check on all three engines.
func TestNullOrSameNeedsAUniqueTarget(t *testing.T) {
	opts := pipeline.Options{InlineLimit: 0, NoCache: true,
		Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true}}
	b, err := pipeline.Compile("summarykey", summaryKeySrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
		res, err := b.Run(vm.Config{Engine: engine, Barrier: satb.ModeConditional, GC: vm.GCSATB,
			TriggerEveryAllocs: 1, CheckInvariant: true, CheckElisions: true, MaxSteps: 100_000})
		if err != nil {
			t.Errorf("engine %v: %v", engine, err)
			continue
		}
		if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
			t.Errorf("engine %v: unsound elisions %v", engine, s.UnsoundSites)
		}
	}
}
