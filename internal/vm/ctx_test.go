package vm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"satbelim/internal/satb"
)

// ctxTestSrc spins long enough that cancellation lands mid-run.
const ctxTestSrc = `
class N { N next; int v; }
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 1000000; i = i + 1) {
            N n = new N();
            n.v = i;
            s = s + n.v;
        }
        print(s);
    }
}
`

// TestRunContextCancellationAbortsBothEngines: a cancelled context stops
// the run at a scheduler-quantum boundary with identical error text on
// the fused and switch engines (parity), and an expired deadline surfaces
// as context.DeadlineExceeded through errors.Is.
func TestRunContextCancellationAbortsBothEngines(t *testing.T) {
	p := compileSrc(t, ctxTestSrc, 100)
	for _, engine := range []Engine{EngineFused, EngineSwitch} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		v := New(p, Config{Barrier: satb.ModeConditional, Engine: engine})
		start := time.Now()
		_, err := v.RunContext(ctx)
		if err == nil {
			t.Fatalf("%v: cancelled run returned no error", engine)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v does not wrap context.Canceled", engine, err)
		}
		if !strings.Contains(err.Error(), "vm: run cancelled") {
			t.Errorf("%v: error text %q", engine, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%v: cancelled run took %v, want abort within a quantum", engine, elapsed)
		}
	}

	// Deadline flavor: must surface as DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	v := New(p, Config{Barrier: satb.ModeConditional})
	_, err := v.RunContext(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline run: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextBackgroundIsIdentical: RunContext with a background
// (non-cancellable) context must behave exactly like Run.
func TestRunContextBackgroundIsIdentical(t *testing.T) {
	src := `
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 100; i = i + 1) { s = s + i; }
        print(s);
    }
}
`
	p := compileSrc(t, src, 100)
	r1, err := New(p, Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(p, Config{}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || len(r1.Output) != len(r2.Output) || r1.Output[0] != r2.Output[0] {
		t.Errorf("RunContext(Background) diverged from Run: %+v vs %+v", r1, r2)
	}
}

// TestRunContextCancelWithinOneHorizon: with one thread and no collector the
// decoded engines visit no quantum boundary, yet a cancel that lands mid-run
// is still observed within one horizon cap of base instructions — the turn
// length pinned here — because every turn ends at the cap and the scheduler
// polls before the next. The switch interpreter polls every quantum, as ever.
func TestRunContextCancelWithinOneHorizon(t *testing.T) {
	const wantCap = 1 << 16
	if horizonSteps != wantCap {
		t.Fatalf("horizonSteps = %d, want %d: the cancellation latency bound moved", horizonSteps, wantCap)
	}
	p := compileSrc(t, `
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 15000000; i = i + 1) { s = s + i % 3; }
        print(s);
    }
}`, 100)
	for _, tc := range []struct {
		engine Engine
		poll   int64 // steps between cancellation polls
	}{{EngineFused, wantCap}, {EngineCompiled, wantCap}, {EngineSwitch, 64}} {
		ctx, cancel := context.WithCancel(context.Background())
		v := New(p, Config{Engine: tc.engine})
		timer := time.AfterFunc(2*time.Millisecond, cancel)
		_, err := v.RunContext(ctx)
		timer.Stop()
		cancel()
		if err == nil {
			t.Logf("%v: the run finished before the cancel landed", tc.engine)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v does not wrap context.Canceled", tc.engine, err)
		}
		// The abort comes at the first poll after the cancel, and polls are
		// exactly tc.poll steps apart from step 0.
		if v.steps%tc.poll != 0 {
			t.Errorf("%v: cancelled at step %d, want a multiple of %d", tc.engine, v.steps, tc.poll)
		}
	}
}
