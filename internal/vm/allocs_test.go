package vm_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// compileA compiles a workload at inline limit 100 under mode A, uncached:
// a fresh program, with no image yet.
func compileA(t *testing.T, name string) *pipeline.Build {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
		InlineLimit: 100, Analysis: core.Options{Mode: core.ModeFieldArray}, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mallocsOnce counts the allocations of one call of f, which
// testing.AllocsPerRun cannot: it calls f once before it starts counting.
func mallocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// warmest returns the fewest allocations and Go heap bytes of one call of
// f among runs calls, each measured alone: the count of a warm run, which
// a call that finds caches cold (the first run translates, a run whose
// heap finds the pool empty allocates a heap's worth) cannot lower. The Go
// collector is off meanwhile: its own few bytes would land in the count
// whenever a cycle happened to start, and a cycle would empty the pool.
func warmest(runs int, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestRunAllocs gates the Go allocations of one vm.New-and-run in tier-1,
// so a regression in the VM's heap, its collectors or its root scan fails
// here and not only in the benchmark. jess and jbb at inline limit 100
// (the two workloads that allocate the most objects), on the benchmark's
// two VM configurations: the compiled tier with no collector (run_hot)
// and the fused engine with a marking cycle always in progress (gc_mark).
// A VM runs the image its program already holds, so only the first vm.New
// of a fresh compile decodes (the "cold" count in the log line), and only
// the first compiled run translates its hot methods: later VMs install the
// translations the image holds (TestTierUpReusesTranslation). A run's heap
// takes the memory the last finished run's heap released (heap.Release),
// and the memory a run needs is a function of the program and the
// configuration, so after one warm-up run the heap asks Go for none: the
// count of a warm run is a function of the program and the configuration
// alone, and two measurements must agree exactly. The ceilings sit about
// 15 % above the measured figures:
//
//	                 recycled   512-byte   shared         one image   one symbol   slab heap   before it (an Object and a
//	                 heap       chunks     translations   (decoded    table                    Fields slice per `new`, a root
//	                                                      once)                                slice per cycle boundary)
//	jess compiled          29        436            437         983        1 062       1 155   15 099
//	jess fused+satb        52        458            459         459          540         573   22 089
//	jbb  compiled          48        152            153       1 019        1 126       1 217    4 792
//	jbb  fused+satb        69        173            174         174          287         332   42 575
//
// (the heap's layout became the program's symbol table, which vm.New no
// longer wraps in an allocation of its own).
//
// The bytes of a run repeat exactly too, and have their own ceilings. One-
// word heap slots cut them by half or more: a storage block of 128 slots
// went from 3 072 B to 1 024 B, a chunk of 32 objects from 1 920 B to
// 1 152 B (allocated as 2 048 B and 1 280 B). A chunk of three parallel
// arrays, state, shape and storage pointer, is 512 B and allocated as 512
// B: 16 B an object where a chunk of Objects took 40. A recycled heap
// allocates no chunk, block, oversize array or chunk list at all; what is
// left is the VM's own state, frames and, under marking, the collector's
// buffers.
//
//	                 recycled   512-byte   shared         one-word slots   tagged 24-byte slots
//	                 heap       chunks     translations
//	jess compiled       3 488    396 018        568 042          600 317              1 319 229
//	jess fused+satb    76 240    436 008        608 032          608 032              1 326 949
//	jbb  compiled       6 936     77 546        122 082          176 253                300 709
//	jbb  fused+satb    15 880     86 496        131 032          131 032                255 493
//
// Each figure is the warmest of ten runs. The race detector's sync.Pool
// drops a quarter of what it is given at random, and a run whose heap
// finds the pool empty allocates a heap's worth again; the fewest of ten
// is a warm run's count all the same, and is gated there too.
func TestRunAllocs(t *testing.T) {
	runtime.GC() // the Go collector's first cycle allocates its workers
	hot := vm.Config{Engine: vm.EngineCompiled, Barrier: satb.ModeConditional, GC: vm.GCNone}
	marking := vm.Config{Engine: vm.EngineFused, Barrier: satb.ModeConditional, GC: vm.GCSATB, ForceMarkingAlways: true}
	for _, tc := range []struct {
		workload string
		name     string
		cfg      vm.Config
		ceiling  uint64
		bytesMax uint64
	}{
		{"jess", "compiled", hot, 34, 4_000},
		{"jess", "fused+satb", marking, 60, 87_700},
		{"jbb", "compiled", hot, 55, 8_000},
		{"jbb", "fused+satb", marking, 80, 18_300},
	} {
		b := compileA(t, tc.workload)
		cold := mallocsOnce(func() { vm.New(b.Program, tc.cfg) })
		run := func() {
			if _, err := vm.New(b.Program, tc.cfg).Run(); err != nil {
				t.Fatal(err)
			}
		}
		first, bytes := warmest(10, run)
		second, bytes2 := warmest(10, run)
		warm := testing.AllocsPerRun(3, func() { vm.New(b.Program, tc.cfg) })
		t.Logf("%s %s: %d allocs and %d bytes per run, %.0f allocs in vm.New (%d in the first vm.New, which decodes)",
			tc.workload, tc.name, first, bytes, warm, cold)
		if bytes != bytes2 {
			t.Errorf("%s %s: allocated bytes do not repeat: %d then %d", tc.workload, tc.name, bytes, bytes2)
		}
		if bytes > tc.bytesMax {
			t.Errorf("%s %s: %d bytes per run, ceiling %d", tc.workload, tc.name, bytes, tc.bytesMax)
		}
		if first != second {
			t.Errorf("%s %s: allocation count does not repeat: %d then %d", tc.workload, tc.name, first, second)
		}
		if first > tc.ceiling {
			t.Errorf("%s %s: %d allocs per run, ceiling %d", tc.workload, tc.name, first, tc.ceiling)
		}
	}
}

// TestTierUpReusesTranslation: on a fresh compile the first compiled run
// translates its hot methods into the image, and the second installs those
// translations: the same tier-ups, at least 150 fewer allocations (jess
// tiers up 2–4 methods of 170–290 allocations each).
func TestTierUpReusesTranslation(t *testing.T) {
	runtime.GC()
	cfg := vm.Config{Engine: vm.EngineCompiled, Barrier: satb.ModeConditional, GC: vm.GCNone}
	b := compileA(t, "jess")
	vm.New(b.Program, cfg) // decode, so that the two runs differ only in translating
	var res [2]*vm.Result
	var mallocs [2]uint64
	for i := range res {
		mallocs[i] = mallocsOnce(func() {
			var err error
			if res[i], err = vm.New(b.Program, cfg).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("jess compiled: %d allocs in the run that translates, %d in the next (%d tier-ups each)", mallocs[0], mallocs[1], res[0].TierUps)
	if res[0].TierUps == 0 || res[0].TierUps != res[1].TierUps {
		t.Errorf("tier-ups: %d in the first run, %d in the second", res[0].TierUps, res[1].TierUps)
	}
	if mallocs[1]+150 > mallocs[0] {
		t.Errorf("the second run allocates %d times, the first %d: it translated again", mallocs[1], mallocs[0])
	}
}

// TestNewOnAWarmImage: once a program holds its image, vm.New allocates
// only the VM's own state — the VM, its heap and counters, and the per-method
// and per-site tables — the same few allocations whatever the program.
func TestNewOnAWarmImage(t *testing.T) {
	const ceiling = 10
	cfg := vm.Config{Engine: vm.EngineCompiled, Barrier: satb.ModeConditional}
	var counts []float64
	for _, name := range []string{"jess", "jbb"} {
		b := compileA(t, name)
		vm.New(b.Program, cfg)
		n := testing.AllocsPerRun(5, func() { vm.New(b.Program, cfg) })
		t.Logf("%s: %.0f allocs in vm.New on a warm image", name, n)
		if n > ceiling {
			t.Errorf("%s: vm.New on a warm image allocates %.0f times, ceiling %d", name, n, ceiling)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("vm.New on a warm image allocates %.0f times for jess and %.0f for jbb: it depends on the program", counts[0], counts[1])
	}
}
