package vm

import (
	"testing"

	"satbelim/internal/satb"
	"satbelim/internal/workloads"
)

// TestHorizonRule pins the horizon a turn is granted in each scheduler
// situation, and the clamp a spawn applies to a turn in progress.
func TestHorizonRule(t *testing.T) {
	p := compileSrc(t, ctxTestSrc, 100)
	cases := []struct {
		name  string
		cfg   Config
		live  int
		alloc int64 // allocSinceGC
		mark  bool  // a cycle is in progress
		want  int
	}{
		{name: "alone, no collector", cfg: Config{}, live: 1, want: 1 << 16},
		{name: "quantum not dividing the cap", cfg: Config{Quantum: 100}, live: 1, want: 65500},
		{name: "quantum above the cap", cfg: Config{Quantum: 1 << 17}, live: 1, want: 1 << 17},
		{name: "second live thread", cfg: Config{}, live: 2, want: 64},
		{name: "idle marker, no trigger", cfg: Config{GC: GCSATB}, live: 1, want: 1 << 16},
		{name: "idle marker, trigger far", cfg: Config{GC: GCSATB, TriggerEveryAllocs: 1 << 20}, live: 1, want: 1 << 16},
		{name: "idle marker, room 1000", cfg: Config{GC: GCSATB, TriggerEveryAllocs: 1000}, live: 1, want: 960},
		{name: "idle marker, room 129", cfg: Config{GC: GCSATB, TriggerEveryAllocs: 200}, live: 1, alloc: 71, want: 128},
		{name: "idle marker, room below a quantum", cfg: Config{GC: GCSATB, TriggerEveryAllocs: 40}, live: 1, want: 64},
		{name: "idle marker, trigger overdue", cfg: Config{GC: GCIncremental, TriggerEveryAllocs: 40}, live: 1, alloc: 90, want: 64},
		{name: "marking", cfg: Config{GC: GCSATB, TriggerEveryAllocs: 1 << 20}, live: 1, mark: true, want: 64},
		{name: "always marking", cfg: Config{GC: GCSATB, ForceMarkingAlways: true}, live: 1, want: 64},
	}
	for _, tc := range cases {
		v := New(p, tc.cfg)
		if tc.mark {
			v.startCycle()
		}
		v.allocSinceGC = tc.alloc
		if got := v.horizon(tc.live); got != tc.want {
			t.Errorf("%s: horizon = %d, want %d", tc.name, got, tc.want)
		}
	}

	v := New(p, Config{})
	for _, c := range [][2]int{{1, 64}, {63, 64}, {64, 64}, {65, 128}, {5000, 5056}} {
		if got := v.spawnClamp(c[0]); got != c[1] {
			t.Errorf("spawnClamp(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestInstructionAllocatesAtMostOnce asserts the bound the idle-marker rule
// rests on: one base instruction raises allocSinceGC by at most one, so with
// room allocations left before the trigger no boundary nearer than room steps
// can start a cycle. Quantum 1 puts every instruction of every workload
// through its own turn — superinstructions never fit and the tier deopts to
// the same per-instruction path — on both decoded engines. (The tier's
// compiled allocations are the same decoded instructions translated one for
// one; the trigger-40 and trigger-129 cells of TestHorizonParityMatrix would
// catch a compiled op that allocated twice.)
func TestInstructionAllocatesAtMostOnce(t *testing.T) {
	for _, w := range workloads.All() {
		p := compileSrc(t, w.Source, 100)
		for _, engine := range []Engine{EngineFused, EngineCompiled} {
			v := New(p, Config{Barrier: satb.ModeConditional, Engine: engine, Quantum: 1})
			turn := v.runFusedQuantum
			if v.tierEnabled() {
				turn = v.runTieredQuantum
			}
			v.threads = []*thread{{frames: []*frame{v.acquire(v.dprog.main)}}}
			var allocs int64
			for live := true; live; {
				live = false
				for _, th := range v.threads {
					if th.done {
						continue
					}
					live = true
					steps, before := v.steps, v.allocSinceGC
					if err := turn(th, 1); err != nil {
						t.Fatalf("%s/%v: %v", w.Name, engine, err)
					}
					if ds, da := v.steps-steps, v.allocSinceGC-before; ds > 1 || da > ds {
						t.Fatalf("%s/%v: a turn of limit 1 ran %d steps and allocated %d objects", w.Name, engine, ds, da)
					}
					allocs += v.allocSinceGC - before
				}
			}
			if allocs == 0 || allocs != v.heap.Allocated {
				t.Errorf("%s/%v: counted %d allocations, heap reports %d", w.Name, engine, allocs, v.heap.Allocated)
			}
		}
	}
}
