package satb

import (
	"testing"

	"satbelim/internal/heap"
)

func TestParseBarrierModeNewNames(t *testing.T) {
	for name, want := range map[string]BarrierMode{
		"yuasa": ModeYuasa, "dijkstra": ModeDijkstra, "hybrid": ModeHybrid,
	} {
		got, err := ParseBarrierMode(name)
		if err != nil || got != want {
			t.Errorf("ParseBarrierMode(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseBarrierMode("bogus"); err == nil {
		t.Error("bogus mode must not parse")
	}
}

func TestAllSpecsCoverEveryMode(t *testing.T) {
	all := AllSpecs()
	if len(all) != 7 {
		t.Fatalf("AllSpecs() = %d flavors, want 7", len(all))
	}
	for i, sp := range all {
		if sp.Mode != BarrierMode(i) {
			t.Errorf("spec %d has mode %v", i, sp.Mode)
		}
		if sp != BarrierMode(i).Spec() {
			t.Errorf("Spec() for %v is not the table entry", sp.Mode)
		}
	}
}

func TestSoundnessMatrix(t *testing.T) {
	// Legacy modes keep the full verdict set; the new flavors restrict it.
	type row struct {
		mode                           BarrierMode
		preNull, nullOrSame, rearrange bool
	}
	for _, r := range []row{
		{ModeNoBarrier, true, true, true},
		{ModeConditional, true, true, true},
		{ModeAlwaysLog, true, true, true},
		{ModeCardMarking, true, true, true},
		{ModeYuasa, true, true, true},
		{ModeDijkstra, false, false, false},
		{ModeHybrid, true, false, false},
	} {
		sp := r.mode.Spec()
		if !sp.Sound(ElideNone) {
			t.Errorf("%v: ElideNone must always be sound", r.mode)
		}
		if sp.Sound(ElidePreNull) != r.preNull ||
			sp.Sound(ElideNullOrSame) != r.nullOrSame ||
			sp.Sound(ElideRearrange) != r.rearrange {
			t.Errorf("%v soundness = {%v %v %v}, want {%v %v %v}", r.mode,
				sp.Sound(ElidePreNull), sp.Sound(ElideNullOrSame), sp.Sound(ElideRearrange),
				r.preNull, r.nullOrSame, r.rearrange)
		}
	}
	if ModeDijkstra.Spec().SnapshotSound || !ModeYuasa.Spec().SnapshotSound || !ModeHybrid.Spec().SnapshotSound {
		t.Error("snapshot soundness: yuasa and hybrid maintain the snapshot, dijkstra does not")
	}
}

func TestYuasaBarrierCosts(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: false}
	c.BarrierSiteSpec(ModeYuasa.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostCheckOnly {
		t.Errorf("marking off: cost = %d, want %d", c.Cost, CostCheckOnly)
	}
	log.active = true
	// Non-null pre: logged.
	c.BarrierSiteSpec(ModeYuasa.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostCheckOnly+CostYuasa || c.Logged != 1 || len(log.logged) != 1 {
		t.Errorf("non-null pre: cost=%d logged=%d", c.Cost, c.Logged)
	}
	// Null pre: the unconditional push costs the same, but nothing is
	// delivered (the drain filters nulls).
	c.BarrierSiteSpec(ModeYuasa.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Null, heap.Ref(8), heap.Ref(1))
	if c.Cost != CostCheckOnly+2*CostYuasa || c.Logged != 1 || len(log.logged) != 1 {
		t.Errorf("null pre: cost=%d logged=%d", c.Cost, c.Logged)
	}
	if c.Shaded != 0 || len(log.shaded) != 0 {
		t.Error("a deletion barrier must not shade new values")
	}
}

func TestDijkstraBarrierShadesNewValue(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.BarrierSiteSpec(ModeDijkstra.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostDijkstraShade || c.Shaded != 1 {
		t.Errorf("cost=%d shaded=%d", c.Cost, c.Shaded)
	}
	if len(log.shaded) != 1 || log.shaded[0] != heap.Ref(8) {
		t.Errorf("shaded = %v (want the stored value)", log.shaded)
	}
	if c.Logged != 0 || len(log.logged) != 0 {
		t.Error("an insertion barrier must not log pre-values")
	}
	// Storing null: nothing to shade.
	c.BarrierSiteSpec(ModeDijkstra.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Null, heap.Ref(1))
	if c.Cost != CostDijkstraShade+CostDijkstraNull || c.Shaded != 1 {
		t.Errorf("null store: cost=%d shaded=%d", c.Cost, c.Shaded)
	}
	// Marking off: just the check.
	log.active = false
	before := c.Cost
	c.BarrierSiteSpec(ModeDijkstra.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != before+CostCheckOnly {
		t.Errorf("marking-off delta = %d", c.Cost-before)
	}
}

func TestHybridBarrierShadesBoth(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	// Both operands non-null: both shaded.
	c.BarrierSiteSpec(ModeHybrid.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostHybridBoth || c.Logged != 1 || c.Shaded != 1 {
		t.Errorf("both: cost=%d logged=%d shaded=%d", c.Cost, c.Logged, c.Shaded)
	}
	if len(log.logged) != 1 || log.logged[0] != heap.Ref(7) ||
		len(log.shaded) != 1 || log.shaded[0] != heap.Ref(8) {
		t.Errorf("logged=%v shaded=%v", log.logged, log.shaded)
	}
	// Null pre, non-null new: only the insertion half.
	c.BarrierSiteSpec(ModeHybrid.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Null, heap.Ref(8), heap.Ref(1))
	if c.Cost != CostHybridBoth+CostHybridOne || c.Shaded != 2 || c.Logged != 1 {
		t.Errorf("insertion half: cost=%d logged=%d shaded=%d", c.Cost, c.Logged, c.Shaded)
	}
	// Both null: fast path.
	c.BarrierSiteSpec(ModeHybrid.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Null, heap.Null, heap.Ref(1))
	if c.Cost != CostHybridBoth+CostHybridOne+CostHybridNull {
		t.Errorf("fast path: cost=%d", c.Cost)
	}
}

func TestProjectedElisionIsFreeUnderNewFlavors(t *testing.T) {
	// A pre-null site under yuasa (sound) is free; the same verdict under
	// dijkstra must be projected away (to ElideNone) by the caller — when
	// it is, the barrier runs in full.
	c := NewCounters()
	log := &recordingLogger{active: true}
	ysp := ModeYuasa.Spec()
	c.BarrierSiteSpec(ysp, log, c.Site(key, FieldSite, ElidePreNull), ElidePreNull,
		heap.Null, heap.Ref(8), heap.Ref(1))
	if c.Cost != 0 {
		t.Errorf("sound elision must be free, cost=%d", c.Cost)
	}
	c2 := NewCounters()
	dsp := ModeDijkstra.Spec()
	k2 := SiteKey{Method: "T.m", PC: 9}
	c2.BarrierSiteSpec(dsp, log, c2.Site(k2, FieldSite, ElideNone), ElideNone,
		heap.Null, heap.Ref(8), heap.Ref(1))
	if c2.Cost != CostDijkstraShade || c2.Shaded != 1 {
		t.Errorf("projected-away elision must pay the full barrier: cost=%d shaded=%d", c2.Cost, c2.Shaded)
	}
}

func TestStaticBarrierNewFlavors(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.StaticBarrierSpec(ModeYuasa.Spec(), log, heap.Ref(1), heap.Ref(2))
	if c.Cost != CostYuasa || c.Logged != 1 {
		t.Errorf("yuasa static: cost=%d logged=%d", c.Cost, c.Logged)
	}
	c.StaticBarrierSpec(ModeDijkstra.Spec(), log, heap.Ref(1), heap.Ref(2))
	if c.Cost != CostYuasa+CostDijkstraShade || c.Shaded != 1 {
		t.Errorf("dijkstra static: cost=%d shaded=%d", c.Cost, c.Shaded)
	}
	c.StaticBarrierSpec(ModeHybrid.Spec(), log, heap.Ref(1), heap.Null)
	if c.Cost != CostYuasa+CostDijkstraShade+CostHybridOne || c.Logged != 2 {
		t.Errorf("hybrid static: cost=%d logged=%d", c.Cost, c.Logged)
	}
	if c.StaticExecs != 3 {
		t.Errorf("static execs = %d", c.StaticExecs)
	}
}
