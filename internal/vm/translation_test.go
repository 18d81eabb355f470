package vm

// The compiled tier's translations are part of the image: one per method
// and image, made by the first VM that tiers the method up and installed by
// every later one, whatever its flavor. These tests pin what that sharing
// must not change — each flavor still runs its own barriers, each VM still
// reads and writes its own heap — and that a translation holds no VM.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
	"satbelim/internal/satb"
)

// TestTranslationsServeEveryFlavorOfTheirImage: no-barrier shares the
// every-verdict image with conditional, and so its translations: a kept
// store compiles to the running VM's barrier, which logs under conditional
// and only counts under no-barrier. On a fresh program, in either order of
// first tier-up, each flavor's compiled run has the switch interpreter's
// counters for that flavor.
func TestTranslationsServeEveryFlavorOfTheirImage(t *testing.T) {
	for _, order := range [][2]satb.BarrierMode{
		{satb.ModeNoBarrier, satb.ModeConditional},
		{satb.ModeConditional, satb.ModeNoBarrier},
	} {
		p := analyzedFlavorProgram(t)
		if New(p, Config{Barrier: order[0]}).dprog != New(p, Config{Barrier: order[1]}).dprog {
			t.Fatal("no-barrier and conditional do not share an image")
		}
		for _, mode := range order {
			cfg := Config{Barrier: mode, GC: GCSATB, TriggerEveryAllocs: 20, TierThreshold: 2}
			cfg.Engine = EngineSwitch
			want, err := New(p, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = EngineCompiled
			got, err := New(p, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got.TierUps == 0 {
				t.Fatalf("%s first, then %s: nothing tiered up", order[0], mode)
			}
			if mode == satb.ModeConditional && want.Counters.Logged == 0 {
				t.Fatal("conditional logged nothing: a raw store would go unnoticed")
			}
			if !reflect.DeepEqual(got.Counters, want.Counters) {
				g, w := got.Counters, want.Counters
				t.Errorf("%s first, then %s: compiled {logged %d shaded %d cost %d}, switch {logged %d shaded %d cost %d}",
					order[0], mode, g.Logged, g.Shaded, g.Cost, w.Logged, w.Shaded, w.Cost)
			}
		}
	}
}

// staticLoopSrc is a hot loop that reads and writes a reference static and
// an int static.
const staticLoopSrc = `
class Node { int val; Node next; }
class G { static Node head; static int sum; }
class Main {
    static void main() {
        for (int i = 0; i < 200; i = i + 1) {
            Node x = new Node();
            x.val = i;
            x.next = G.head;
            G.head = x;
            G.sum = G.sum + i;
        }
        print(G.sum);
        print(G.head.val);
    }
}
`

// TestTranslationsReadTheRunningVMsStatics: VM B installs the translation VM
// A made, and still reads and writes its own heap's statics — the same
// output as A, and the same static contents.
func TestTranslationsReadTheRunningVMsStatics(t *testing.T) {
	p := compileSrc(t, staticLoopSrc, 0)
	cfg := Config{Engine: EngineCompiled, TierThreshold: 2}
	a := New(p, cfg)
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := New(p, cfg)
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	mainNum := a.dprog.main.num
	if ra.TierUps == 0 || b.ms[mainNum].tier != a.ms[mainNum].tier {
		t.Fatalf("B did not install A's translation of main (A tiered up %d methods)", ra.TierUps)
	}
	if want := []int64{19900, 199}; !reflect.DeepEqual(ra.Output, want) || !reflect.DeepEqual(rb.Output, want) {
		t.Errorf("output: A %v, B %v, want %v", ra.Output, rb.Output, want)
	}
	for _, name := range []string{"head", "sum"} {
		slot := p.Symbols().Field(bytecode.FieldRef{Class: "G", Name: name}).Slot
		if wa, wb := *a.Heap().Static(slot), *b.Heap().Static(slot); wa == 0 || wa != wb {
			t.Errorf("G.%s: A's heap holds %d, B's %d", name, wa, wb)
		}
	}
}

// TestTranslationsPinNoVM: once a compiled run's VM is dropped, its heap is
// collected while the program and its image, translations included, live
// on.
func TestTranslationsPinNoVM(t *testing.T) {
	p := compileSrc(t, staticLoopSrc, 0)
	collected := make(chan struct{})
	func() {
		v := New(p, Config{Engine: EngineCompiled, TierThreshold: 2})
		if res, err := v.Run(); err != nil || res.TierUps == 0 {
			t.Fatalf("compiled run: %v (tier-ups %v)", err, res)
		}
		runtime.SetFinalizer(v.Heap(), func(*heap.Heap) { close(collected) })
	}()
	for range 50 {
		runtime.GC()
		select {
		case <-collected:
			main := New(p, Config{}).dprog.main
			if main.compiled.Load() == nil {
				t.Error("the image no longer holds main's translation")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped VM's heap was not collected while its program lived: something the image holds pins the VM")
}
