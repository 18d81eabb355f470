package vm

import (
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
)

// imagesOf returns the images p holds, or nil.
func imagesOf(p *bytecode.Program) *images {
	ims, _ := p.Decoded().Load().(*images)
	return ims
}

// sameAsSwitch runs p on the fused engine and on the switch interpreter,
// which reads every verdict off the code at each store, and demands equal
// barrier counters: a stale image would run some site with an old verdict.
func sameAsSwitch(t *testing.T, p *bytecode.Program, cfg Config, what string) {
	t.Helper()
	var res [2]*Result
	for i, eng := range []Engine{EngineFused, EngineSwitch} {
		cfg.Engine = eng
		r, err := New(p, cfg).Run()
		if err != nil {
			t.Fatalf("%s: %v: %v", what, eng, err)
		}
		res[i] = r
	}
	if !reflect.DeepEqual(res[0].Counters, res[1].Counters) || res[0].Steps != res[1].Steps {
		t.Errorf("%s: the fused engine's run differs from the switch interpreter's", what)
	}
}

// TestImagesAreNeverStale: a VM runs the image its program holds only while
// that image is what decoding the program now would give. A verdict
// rewritten between two VMs and a re-analysis are both seen by the next VM;
// a Clone and a program after AddClass start with no image at all.
func TestImagesAreNeverStale(t *testing.T) {
	p := analyzedFlavorProgram(t)
	cfg := Config{Barrier: satb.ModeConditional}
	first := New(p, cfg).dprog
	if New(p, cfg).dprog != first {
		t.Fatal("a second VM of an unchanged program decoded it again")
	}

	// A verdict rewritten by hand, as the oracle tests do.
	site := -1
	for i, s := range first.sites {
		if s.elide == satb.ElidePreNull {
			site = i
			break
		}
	}
	if site < 0 {
		t.Fatal("no pre-null site to rewrite")
	}
	s := first.sites[site]
	in := &p.Methods()[s.m].Code[s.key.PC]
	in.Verdict = bytecode.VerdictNone
	second := New(p, cfg).dprog
	if second == first || second.sites[site].elide != satb.ElideNone {
		t.Errorf("verdict rewritten to none: the next VM runs the site with %v", second.sites[site].elide)
	}
	sameAsSwitch(t, p, cfg, "after a rewritten verdict")
	in.Verdict = bytecode.VerdictPreNull
	if got := New(p, cfg).dprog.sites[site].elide; got != satb.ElidePreNull {
		t.Errorf("verdict rewritten back: the next VM runs the site with %v", got)
	}

	// A re-analysis under another mode.
	before := New(p, cfg).dprog
	if _, err := core.AnalyzeProgram(p, core.Options{Mode: core.ModeField}); err != nil {
		t.Fatal(err)
	}
	after := New(p, cfg).dprog
	moved := 0
	for i := range after.sites {
		if after.sites[i].elide != before.sites[i].elide {
			moved++
		}
	}
	if moved == 0 {
		t.Error("re-analysing under mode F moved no site's verdict in the next VM")
	}
	sameAsSwitch(t, p, cfg, "after a re-analysis")

	clone := p.Clone()
	if imagesOf(clone) != nil {
		t.Error("a Clone starts with its original's images")
	}
	if New(clone, cfg).dprog == after {
		t.Error("a Clone's VM runs its original's image")
	}

	p.AddClass(&bytecode.Class{Name: "Extra"})
	if imagesOf(p) != nil {
		t.Error("AddClass kept the images")
	}
	sameAsSwitch(t, p, cfg, "after AddClass")
}

// TestOneImagePerProjection: an image depends on the flavor only through
// the verdicts it applies, so the seven flavors and the hook that applies
// every verdict share three images.
func TestOneImagePerProjection(t *testing.T) {
	p := analyzedFlavorProgram(t)
	specs := satb.AllSpecs()
	if len(specs) != 7 {
		t.Fatalf("%d flavors, want 7", len(specs))
	}
	for _, spec := range specs {
		// The projection keeps a verdict the flavor's table calls sound and
		// demotes any other to ElideNone.
		for k := satb.ElideNone; k <= satb.ElidePreNull; k++ {
			want := satb.ElideNone
			if spec.Sound(k) {
				want = k
			}
			if got := projectionOf(spec).apply(k); got != want {
				t.Errorf("%s: verdict %v runs as %v, want %v", spec.Name, k, got, want)
			}
		}
		New(p, Config{Barrier: spec.Mode})
	}
	raw := NewWithHooks(p, Config{Barrier: satb.ModeDijkstra}, TestHooks{ForceRawElide: true})
	n := 0
	for i := range imagesOf(p) {
		if imagesOf(p)[i].Load() != nil {
			n++
		}
	}
	if n != 3 {
		t.Errorf("seven flavors and the raw hook built %d images, want 3", n)
	}
	if raw.dprog != New(p, Config{Barrier: satb.ModeConditional}).dprog {
		t.Error("the raw hook does not share the conditional flavor's image")
	}
}
