package satb

import (
	"testing"

	"satbelim/internal/heap"
)

type recordingLogger struct {
	active   bool
	logged   []heap.Ref
	shaded   []heap.Ref
	dirtied  []heap.Ref
	retraced []heap.Ref
	state    heap.TraceState
}

func (r *recordingLogger) LogPreValue(x heap.Ref)                { r.logged = append(r.logged, x) }
func (r *recordingLogger) Shade(x heap.Ref)                      { r.shaded = append(r.shaded, x) }
func (r *recordingLogger) MarkingActive() bool                   { return r.active }
func (r *recordingLogger) DirtyCard(x heap.Ref)                  { r.dirtied = append(r.dirtied, x) }
func (r *recordingLogger) TraceStateOf(heap.Ref) heap.TraceState { return r.state }
func (r *recordingLogger) Retrace(x heap.Ref)                    { r.retraced = append(r.retraced, x) }

var key = SiteKey{Method: "T.m", PC: 3}

func TestConditionalBarrierMarkingOff(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: false}
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostCheckOnly {
		t.Errorf("cost = %d, want %d", c.Cost, CostCheckOnly)
	}
	if len(log.logged) != 0 {
		t.Error("nothing should be logged while marking is off")
	}
	s := c.Site(key, FieldSite, ElideNone)
	if s.Execs != 1 || s.PreNull != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConditionalBarrierLogsNonNullPre(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(7), heap.Ref(8), heap.Ref(1))
	if c.Cost != CostLogged || c.Logged != 1 {
		t.Errorf("cost=%d logged=%d", c.Cost, c.Logged)
	}
	if len(log.logged) != 1 || log.logged[0] != heap.Ref(7) {
		t.Errorf("logged = %v", log.logged)
	}
	// Null pre-value: cheaper, no log.
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Null, heap.Ref(8), heap.Ref(1))
	if c.Cost != CostLogged+CostPreNull || len(log.logged) != 1 {
		t.Errorf("after null pre: cost=%d logs=%d", c.Cost, len(log.logged))
	}
}

func TestAlwaysLogSkipsCheck(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: false}
	c.BarrierSiteSpec(ModeAlwaysLog.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(9), heap.Ref(2), heap.Ref(1))
	if c.Cost != CostAlwaysLogged {
		t.Errorf("cost = %d, want %d", c.Cost, CostAlwaysLogged)
	}
	// Marking off: entry counted but not delivered.
	if len(log.logged) != 0 {
		t.Error("inactive marker should not receive entries")
	}
	log.active = true
	c.BarrierSiteSpec(ModeAlwaysLog.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(9), heap.Ref(2), heap.Ref(1))
	if len(log.logged) != 1 {
		t.Error("active marker should receive the entry")
	}
}

func TestElidedSitePaysNothing(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, ArraySite, ElidePreNull), ElidePreNull, heap.Null, heap.Ref(8), heap.Ref(1))
	if c.Cost != 0 || len(log.logged) != 0 {
		t.Errorf("elided site must be free: cost=%d", c.Cost)
	}
	s := c.Site(key, ArraySite, ElidePreNull)
	if s.Execs != 1 || s.PreNull != 1 {
		t.Errorf("instrumentation must still observe elided stores: %+v", s)
	}
}

func TestCardMarking(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{}
	c.BarrierSiteSpec(ModeCardMarking.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != CostCard || c.CardsDirtied != 1 {
		t.Errorf("cost=%d cards=%d", c.Cost, c.CardsDirtied)
	}
	if len(log.dirtied) != 1 || log.dirtied[0] != heap.Ref(5) {
		t.Errorf("dirtied = %v (should be the written object)", log.dirtied)
	}
}

func TestNoBarrierIsFree(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.BarrierSiteSpec(ModeNoBarrier.Spec(), log, c.Site(key, FieldSite, ElideNone), ElideNone, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != 0 {
		t.Error("no-barrier mode must cost nothing")
	}
}

func TestSummaryComputesTable1Quantities(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: false}
	k1 := SiteKey{Method: "T.m", PC: 1} // field, elided, always pre-null
	k2 := SiteKey{Method: "T.m", PC: 2} // field, kept, sometimes non-null
	k3 := SiteKey{Method: "T.m", PC: 3} // array, kept, always pre-null (potential)
	for i := 0; i < 10; i++ {
		c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(k1, FieldSite, ElidePreNull), ElidePreNull, heap.Null, 8, 1)
	}
	for i := 0; i < 5; i++ {
		pre := heap.Null
		if i%2 == 0 {
			pre = heap.Ref(9)
		}
		c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(k2, FieldSite, ElideNone), ElideNone, pre, 8, 1)
	}
	for i := 0; i < 4; i++ {
		c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(k3, ArraySite, ElideNone), ElideNone, heap.Null, 8, 1)
	}
	s := c.Summarize()
	if s.TotalExecs != 19 || s.FieldExecs != 15 || s.ArrayExecs != 4 {
		t.Errorf("execs: %+v", s)
	}
	if s.ElidedExecs != 10 || s.FieldElided != 10 || s.ArrayElided != 0 {
		t.Errorf("elided: %+v", s)
	}
	if s.PotPreNull != 14 { // k1 (10) + k3 (4)
		t.Errorf("potential pre-null = %d, want 14", s.PotPreNull)
	}
	if len(s.UnsoundSites) != 0 {
		t.Errorf("no unsound sites expected: %v", s.UnsoundSites)
	}
}

func TestSummaryFlagsUnsoundElision(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{}
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, FieldSite, ElidePreNull), ElidePreNull, heap.Ref(4), 8, 1) // elided but non-null pre!
	s := c.Summarize()
	if len(s.UnsoundSites) != 1 {
		t.Fatalf("unsound elision must be flagged: %+v", s)
	}
}

func TestStaticBarrier(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	c.StaticBarrierSpec(ModeConditional.Spec(), log, heap.Ref(2), heap.Ref(3))
	if c.StaticExecs != 1 || c.Logged != 1 {
		t.Errorf("statics: execs=%d logged=%d", c.StaticExecs, c.Logged)
	}
}

func TestSitesDeterministicOrder(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{}
	c.BarrierSiteSpec(ModeNoBarrier.Spec(), log, c.Site(SiteKey{Method: "B.m", PC: 9}, FieldSite, ElideNone), ElideNone, 0, 0, 1)
	c.BarrierSiteSpec(ModeNoBarrier.Spec(), log, c.Site(SiteKey{Method: "A.m", PC: 2}, FieldSite, ElideNone), ElideNone, 0, 0, 1)
	c.BarrierSiteSpec(ModeNoBarrier.Spec(), log, c.Site(SiteKey{Method: "A.m", PC: 1}, FieldSite, ElideNone), ElideNone, 0, 0, 1)
	sites := c.Sites()
	if len(sites) != 3 {
		t.Fatalf("sites = %d", len(sites))
	}
}

func TestRearrangeBarrierProtocol(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{active: true}
	// Untraced array: just the trace-state check, nothing logged.
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, ArraySite, ElideRearrange), ElideRearrange, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != CostTraceCheck || len(log.retraced) != 0 {
		t.Errorf("untraced: cost=%d retraced=%v", c.Cost, log.retraced)
	}
	// Already-traced array: retrace scheduled.
	log.state = heap.TraceTraced
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, ArraySite, ElideRearrange), ElideRearrange, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if len(log.retraced) != 1 || log.retraced[0] != heap.Ref(5) {
		t.Errorf("traced: retraced=%v", log.retraced)
	}
	if c.Cost != 2*CostTraceCheck+CostRetrace {
		t.Errorf("cost = %d", c.Cost)
	}
	// Marking off: only the conditional check cost.
	log.active = false
	before := c.Cost
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, ArraySite, ElideRearrange), ElideRearrange, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != before+CostCheckOnly {
		t.Errorf("marking-off cost delta = %d", c.Cost-before)
	}
	// No-barrier mode is free.
	before = c.Cost
	c.BarrierSiteSpec(ModeNoBarrier.Spec(), log, c.Site(key, ArraySite, ElideRearrange), ElideRearrange, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != before {
		t.Error("no-barrier must be free")
	}
	// Card marking falls back to a card store.
	before = c.Cost
	c.BarrierSiteSpec(ModeCardMarking.Spec(), log, c.Site(key, ArraySite, ElideRearrange), ElideRearrange, heap.Ref(3), heap.Ref(4), heap.Ref(5))
	if c.Cost != before+CostCard || len(log.dirtied) != 1 {
		t.Errorf("card fallback: cost delta %d, dirtied %v", c.Cost-before, log.dirtied)
	}
	s := c.Summarize()
	if s.RearrangeExecs != 5 || s.Retraces != 1 {
		t.Errorf("summary: rearrange=%d retraces=%d", s.RearrangeExecs, s.Retraces)
	}
	if len(s.UnsoundSites) != 0 {
		t.Errorf("rearrange sites are not per-store checked: %v", s.UnsoundSites)
	}
}

func TestStaticBarrierAllModes(t *testing.T) {
	c := NewCounters()
	log := &recordingLogger{}
	c.StaticBarrierSpec(ModeNoBarrier.Spec(), log, heap.Ref(1), heap.Ref(2))
	if c.Cost != 0 {
		t.Error("no-barrier static must be free")
	}
	c.StaticBarrierSpec(ModeConditional.Spec(), log, heap.Ref(1), heap.Ref(2)) // marking off
	if c.Cost != CostCheckOnly {
		t.Errorf("cost = %d", c.Cost)
	}
	log.active = true
	c.StaticBarrierSpec(ModeConditional.Spec(), log, heap.Null, heap.Ref(2))
	if c.Cost != CostCheckOnly+CostPreNull {
		t.Errorf("cost = %d", c.Cost)
	}
	c.StaticBarrierSpec(ModeAlwaysLog.Spec(), log, heap.Null, heap.Ref(2))
	c.StaticBarrierSpec(ModeAlwaysLog.Spec(), log, heap.Ref(2), heap.Ref(3))
	if c.Logged != 1 || len(log.logged) != 1 {
		t.Errorf("always-log statics: logged=%d", c.Logged)
	}
	c.StaticBarrierSpec(ModeCardMarking.Spec(), log, heap.Ref(2), heap.Ref(3))
	if c.CardsDirtied != 1 {
		t.Error("card static")
	}
	if c.StaticExecs != 6 {
		t.Errorf("static execs = %d", c.StaticExecs)
	}
}

func TestStringersAndPredicates(t *testing.T) {
	for mode, want := range map[BarrierMode]string{
		ModeNoBarrier: "no-barrier", ModeConditional: "conditional",
		ModeAlwaysLog: "always-log", ModeCardMarking: "card-marking",
	} {
		if mode.String() != want {
			t.Errorf("%v != %s", mode, want)
		}
	}
	if FieldSite.String() != "field" || ArraySite.String() != "array" {
		t.Error("site kind strings")
	}
	s := &SiteStats{Execs: 3, PreNull: 3}
	if !s.PotentiallyPreNull() {
		t.Error("all-pre-null site is potential")
	}
	s.PreNull = 2
	if s.PotentiallyPreNull() {
		t.Error("mixed site is not potential")
	}
	var nop NopLogger
	nop.LogPreValue(1)
	nop.DirtyCard(1)
	nop.Retrace(1)
	if nop.MarkingActive() || nop.TraceStateOf(1) != heap.TraceUntraced {
		t.Error("nop logger defaults")
	}
	c := NewCounters()
	log := &recordingLogger{}
	c.BarrierSiteSpec(ModeConditional.Spec(), log, c.Site(key, FieldSite, ElidePreNull), ElidePreNull, heap.Ref(1), heap.Ref(1), 1)
	sum := c.Summarize()
	if sum.String() == "" {
		t.Error("summary string empty")
	}
}
