package vm

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
)

// imagesOf returns the images held on the verdict table vt, or nil.
func imagesOf(vt *bytecode.Verdicts) *images {
	ims, _ := vt.Decoded().Load().(*images)
	return ims
}

// sameAsSwitch runs p on the fused engine and on the switch interpreter,
// which reads each verdict off the VM's table at every store, and demands
// equal barrier counters: an image decoded under other verdicts would run
// some site with a verdict the table does not hold.
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

// TestImagesAreNeverStale: an image belongs to the verdict table it was
// decoded from. VMs of an unchanged table share one image; a table
// installed by hand, a re-analysis, a Clone and AddClass each give the next
// VM a new table and so a new image, and leave the old table's images as
// they were.
func TestImagesAreNeverStale(t *testing.T) {
	p := analyzedFlavorProgram(t)
	cfg := Config{Barrier: satb.ModeConditional}
	analyzed := p.Verdicts()
	first := New(p, cfg).dprog
	if New(p, cfg).dprog != first || imagesOf(analyzed)[allVerdicts].Load() != first {
		t.Fatal("a second VM of an unchanged table decoded it again")
	}

	// A table installed by hand, as the oracle tests do.
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
	var m *bytecode.Method
	for _, pm := range p.Methods() {
		if pm.QualifiedName() == s.key.Method {
			m = pm
		}
	}
	setVerdicts(p, m, bytecode.VerdictNone, s.key.PC)
	second := New(p, cfg).dprog
	if second == first || second.sites[site].elide != satb.ElideNone {
		t.Errorf("verdict rewritten to none: the next VM runs the site with %v", second.sites[site].elide)
	}
	if imagesOf(analyzed)[allVerdicts].Load() != first {
		t.Error("installing a table changed the old table's image")
	}
	sameAsSwitch(t, p, cfg, "after a hand-installed table")
	setVerdicts(p, m, bytecode.VerdictPreNull, s.key.PC)
	if got := New(p, cfg).dprog.sites[site].elide; got != satb.ElidePreNull {
		t.Errorf("verdict rewritten back: the next VM runs the site with %v", got)
	}

	// A re-analysis under another mode.
	old := p.Verdicts()
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
	if p.Verdicts() == old || imagesOf(old)[allVerdicts].Load() != before {
		t.Error("a re-analysis did not leave the old table and its image alone")
	}
	sameAsSwitch(t, p, cfg, "after a re-analysis")

	clone := p.Clone()
	if imagesOf(clone.Verdicts()) != nil || clone.Verdicts().Of(0) != nil {
		t.Error("a Clone starts with its original's verdicts or images")
	}
	if New(clone, cfg).dprog == after {
		t.Error("a Clone's VM runs its original's image")
	}

	table := p.Verdicts()
	p.AddClass(&bytecode.Class{Name: "Extra"})
	if p.Verdicts() == table || imagesOf(p.Verdicts()) != nil {
		t.Error("AddClass kept the verdicts or the images")
	}
	sameAsSwitch(t, p, cfg, "after AddClass")
}

// TestReanalysisWhileRunning: one goroutine re-analyzes a program under
// alternating modes while VMs of it run on every engine (run it under
// -race). A VM runs the table it was made on: its barrier counters are
// those of a VM made alone on that table afterwards.
func TestReanalysisWhileRunning(t *testing.T) {
	p := analyzedFlavorProgram(t)
	var analyses atomic.Int64
	stop := make(chan struct{})
	analyzer := make(chan error)
	go func() {
		modes := []core.Options{{Mode: core.ModeField}, {Mode: core.ModeFieldArray, NullOrSame: true}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				analyzer <- nil
				return
			default:
			}
			if _, err := core.AnalyzeProgram(p, modes[i%2]); err != nil {
				analyzer <- err
				return
			}
			analyses.Add(1)
		}
	}()

	type run struct {
		cfg Config
		vt  *bytecode.Verdicts
		res *Result
	}
	const runsPerEngine = 6
	engines := []Engine{EngineSwitch, EngineFused, EngineCompiled}
	runs := make([][]run, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for e, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Engine: eng, Barrier: satb.ModeConditional, GC: GCSATB, TriggerEveryAllocs: 64}
			last := int64(-2)
			for range runsPerEngine {
				// Each VM starts two analyses after the last one did, so
				// that no two runs of an engine share a table.
				for analyses.Load() < last+2 {
					runtime.Gosched()
				}
				last = analyses.Load()
				v := New(p, cfg)
				res, err := v.Run()
				if err != nil {
					errs[e] = err
					return
				}
				runs[e] = append(runs[e], run{cfg, v.verdicts, res})
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-analyzer; err != nil {
		t.Fatal(err)
	}
	tables := map[*bytecode.Verdicts]bool{}
	for e, rs := range runs {
		if errs[e] != nil {
			t.Fatalf("%v: %v", engines[e], errs[e])
		}
		for i, r := range rs {
			tables[r.vt] = true
			rows := make([][]bytecode.Verdict, len(p.Methods()))
			for n := range rows {
				rows[n] = r.vt.Of(n)
			}
			p.SetVerdicts(rows)
			alone, err := New(p, r.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.res.Counters, alone.Counters) || r.res.Steps != alone.Steps {
				t.Errorf("%v run %d: its counters differ from a VM's made alone on its table", engines[e], i)
			}
		}
	}
	if len(tables) < runsPerEngine {
		t.Errorf("the runs saw %d verdict tables, want at least %d", len(tables), runsPerEngine)
	}
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
	ims := imagesOf(p.Verdicts())
	for i := range ims {
		if ims[i].Load() != nil {
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
