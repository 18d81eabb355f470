package vm_test

import (
	"runtime"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// TestRunAllocs gates the Go allocations of one decode-and-run in tier-1,
// so a regression in the VM's heap, its collectors or its root scan fails
// here and not only in the benchmark. jess and jbb at inline limit 100
// (the two workloads that allocate the most objects), on the benchmark's
// two VM configurations: the compiled tier with no collector (run_hot)
// and the fused engine with a marking cycle always in progress (gc_mark).
// Nothing is pooled or cached across runs, so the count is a function of
// the program and the configuration alone: two measurements must agree
// exactly. The ceilings sit about 15 % above the measured figures; the
// log line also says how many of a run's allocations are vm.New's (the
// heap, the layout and the decode of the whole program — what a build
// could own instead of each VM):
//
//	                 one symbol   slab heap   before it (an Object and a
//	                 table                    Fields slice per `new`, a root
//	                                          slice per cycle boundary)
//	jess compiled        1 062       1 155   15 099
//	jess fused+satb        540         573   22 089
//	jbb  compiled        1 126       1 217    4 792
//	jbb  fused+satb        287         332   42 575
func TestRunAllocs(t *testing.T) {
	runtime.GC() // the Go collector's first cycle allocates its workers
	hot := vm.Config{Engine: vm.EngineCompiled, Barrier: satb.ModeConditional, GC: vm.GCNone}
	marking := vm.Config{Engine: vm.EngineFused, Barrier: satb.ModeConditional, GC: vm.GCSATB, ForceMarkingAlways: true}
	for _, tc := range []struct {
		workload string
		name     string
		cfg      vm.Config
		ceiling  float64
	}{
		{"jess", "compiled", hot, 1220},
		{"jess", "fused+satb", marking, 620},
		{"jbb", "compiled", hot, 1295},
		{"jbb", "fused+satb", marking, 330},
	} {
		w, err := workloads.Get(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		measure := func() float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := vm.New(b.Program, tc.cfg).Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		first, second := measure(), measure()
		inNew := testing.AllocsPerRun(3, func() { vm.New(b.Program, tc.cfg) })
		t.Logf("%s %s: %.0f allocs per run, %.0f of them in vm.New", tc.workload, tc.name, first, inNew)
		if first != second {
			t.Errorf("%s %s: allocation count does not repeat: %.0f then %.0f", tc.workload, tc.name, first, second)
		}
		if first > tc.ceiling {
			t.Errorf("%s %s: %.0f allocs per run, ceiling %.0f", tc.workload, tc.name, first, tc.ceiling)
		}
	}
}
