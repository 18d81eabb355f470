// Package satb implements the mutator side of concurrent-marking write
// barriers: the barriers executed at reference stores, their thread-local
// log buffers, per-site instrumentation, and a deterministic
// instruction-cost model used by the end-to-end experiments (Table 2).
//
// Barrier behavior is table-driven: every flavor — the paper's SATB
// deletion barriers (conditional and always-log), the card-marking
// incremental-update baseline, plus the Yuasa deletion, Dijkstra
// insertion, and Go-style hybrid barriers — is described by a BarrierSpec
// declaring its cost table, what it shades (pre-value, new value, or
// both), its marking-phase gating, and which compile-time elision
// verdicts remain sound under it. BarrierMode and the barrier entry
// points are thin wrappers over the spec table.
package satb

import (
	"fmt"
	"sort"
	"strings"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
	"satbelim/internal/num"
)

// BarrierMode selects the barrier configuration (Table 2's three modes,
// the card-marking baseline, and the cross-flavor matrix additions).
type BarrierMode int

const (
	// ModeNoBarrier executes no write barriers at all (the "no-barrier"
	// row: an unsound configuration used to measure barrier cost).
	ModeNoBarrier BarrierMode = iota
	// ModeConditional is the production SATB barrier: check whether
	// marking is in progress; if so read the pre-value, and log it when
	// non-null.
	ModeConditional
	// ModeAlwaysLog elides the marking-in-progress check and always
	// logs non-null pre-values (the incrementalized-marking future of
	// §4.5, the "always-log" row).
	ModeAlwaysLog
	// ModeCardMarking is the incremental-update baseline: a two-
	// instruction dirty-card barrier; the collector rescans dirty
	// objects.
	ModeCardMarking
	// ModeYuasa is the classic deletion barrier (Yuasa 1990, PyPy's
	// mostly-concurrent mark&sweep): while marking, unconditionally push
	// the overwritten value to the snapshot save stack. No pre-null fast
	// path — null filtering happens when the stack is drained.
	ModeYuasa
	// ModeDijkstra is the pure insertion barrier (Dijkstra et al. 1978):
	// while marking, shade the value being stored. It keeps every
	// mutator-installed edge reachable but maintains no snapshot, so
	// deletion-style elision proofs do not transfer.
	ModeDijkstra
	// ModeHybrid is the Go-style hybrid barrier (golang/go#17503):
	// while marking, shade both the overwritten value and the value
	// being stored, buying deletion-barrier soundness without stack
	// rescanning.
	ModeHybrid
)

func (m BarrierMode) String() string { return m.Spec().Name }

// ParseBarrierMode parses a barrier-mode name ("none", "conditional",
// "alwayslog", "card", "yuasa", "dijkstra", or "hybrid"). All CLIs and
// the satbd request path share it so the flag vocabulary cannot drift.
func ParseBarrierMode(s string) (BarrierMode, error) {
	switch s {
	case "none":
		return ModeNoBarrier, nil
	case "conditional", "":
		return ModeConditional, nil
	case "alwayslog":
		return ModeAlwaysLog, nil
	case "card":
		return ModeCardMarking, nil
	case "yuasa":
		return ModeYuasa, nil
	case "dijkstra":
		return ModeDijkstra, nil
	case "hybrid":
		return ModeHybrid, nil
	}
	return ModeConditional, fmt.Errorf("unknown barrier mode %q (want none, conditional, alwayslog, card, yuasa, dijkstra, or hybrid)", s)
}

// Barrier cost model, in abstract RISC-instruction units. The paper (§1)
// reports 9–12 instructions for the full SATB barrier and ~2 for a
// card-marking barrier; the constants below follow that shape.
const (
	// CostCheckOnly: marking not in progress — the inline check falls
	// through.
	CostCheckOnly = 1
	// CostTraceCheck: the rearrangement store's trace-state read + test.
	CostTraceCheck = 2
	// CostRetrace: enqueueing an array on the retrace list.
	CostRetrace = 6
	// CostPreNull: marking in progress, pre-value read and found null —
	// no logging needed.
	CostPreNull = 5
	// CostLogged: marking in progress, non-null pre-value pushed to the
	// thread-local buffer.
	CostLogged = 12
	// CostAlwaysPreNull / CostAlwaysLogged: the always-log barrier saves
	// the check instruction.
	CostAlwaysPreNull = 4
	CostAlwaysLogged  = 11
	// CostCard: the card-marking barrier.
	CostCard = 2
	// CostYuasa: the Yuasa deletion barrier's unconditional snapshot
	// push while marking — load the pre-value and push it to the save
	// stack. Null filtering happens at drain time, so null and non-null
	// pre-values cost the same.
	CostYuasa = 9
	// CostDijkstraNull / CostDijkstraShade: the insertion barrier tests
	// only the value being stored; shading greys it. The null fast path
	// is cheaper than the deletion barriers' because the stored value is
	// already in a register — no pre-value load.
	CostDijkstraNull  = 3
	CostDijkstraShade = 10
	// CostHybridNull / CostHybridOne / CostHybridBoth: the Go-style
	// hybrid barrier tests both the overwritten and the stored value and
	// shades each non-null one.
	CostHybridNull = 5
	CostHybridOne  = 12
	CostHybridBoth = 16
)

// SiteKind distinguishes the two compiled barrier kinds of Table 1.
type SiteKind int

const (
	FieldSite SiteKind = iota
	ArraySite
)

func (k SiteKind) String() string {
	if k == FieldSite {
		return "field"
	}
	return "array"
}

// SiteOf is the one answer to "is this instruction a barrier site, and of
// which kind": a putfield of a reference-typed field or an aastore (the
// kind is meaningless when the answer is no). op is the instruction's
// opcode and field the id its Body resolved it to (Body.FieldAt). Site
// counts, the code-size model, the flavor projection and the VM's site
// tables ask it once per instruction, so it stays an index and a compare.
func SiteOf(syms *bytecode.Symbols, op bytecode.Op, field bytecode.FieldID) (SiteKind, bool) {
	if op == bytecode.OpPutField {
		return FieldSite, syms.Fields[field].IsRef
	}
	return ArraySite, op == bytecode.OpAAStore
}

// SiteKey identifies a compiled store site.
type SiteKey struct {
	Method string
	PC     int
}

// ElideKind is the analysis verdict for a site: bytecode.Verdict under the
// name the barrier layer has always used for it.
type ElideKind = bytecode.Verdict

const (
	ElideNone       = bytecode.VerdictNone
	ElideRearrange  = bytecode.VerdictRearrange
	ElideNullOrSame = bytecode.VerdictNullOrSame
	ElidePreNull    = bytecode.VerdictPreNull
)

const numElideKinds = int(ElidePreNull) + 1

// BarrierSpec is the descriptor for one barrier flavor: its cost table,
// what it shades, how it is gated on the marking phase, and — the part
// the compile-time analysis cares about — which elision verdicts remain
// sound under it. All barrier entry points dispatch over this table;
// BarrierMode is the spec's stable enum handle.
type BarrierSpec struct {
	Mode BarrierMode
	// Name is the canonical display name (also what BarrierMode.String
	// returns).
	Name string

	// ShadesPre / ShadesNew say which store operands the barrier keeps
	// alive: the overwritten value (deletion shading), the value being
	// stored (insertion shading), or both (hybrid). A spec shading
	// neither and not card-marking is the no-barrier configuration.
	ShadesPre bool
	ShadesNew bool
	// Card marks the incremental-update card-dirtying baseline.
	Card bool
	// Checked gates the barrier body on MarkingActive: the inline
	// marking-phase test costs CostCheck when it falls through. Unchecked
	// flavors (always-log) pay the body cost even outside marking but
	// deliver entries to the collector only while marking is active.
	Checked bool
	// SnapshotSound reports whether the flavor maintains the SATB
	// snapshot invariant (every object reachable at mark start stays
	// reachable to the marker). Insertion-only shading and card marking
	// preserve liveness but not the snapshot, so the snapshot-invariant
	// checker must not be armed under them.
	SnapshotSound bool

	// Cost table, in abstract instruction units.
	CostCheck     uint64 // Checked flavor, marking not in progress
	CostFast      uint64 // barrier body with nothing to shade
	CostShade     uint64 // barrier body shading one value
	CostShadeBoth uint64 // barrier body shading both values (hybrid)
	CostCard      uint64 // card-dirtying store

	// sound[k] reports whether elision verdict k may be applied under
	// this flavor. Pre-null proofs are exactly deletion-safe; null-or-
	// same and rearrangement elision additionally assume the barrier
	// shades nothing but pre-values.
	sound [numElideKinds]bool
}

// Sound reports whether the compile-time elision verdict k may be
// applied under this flavor.
func (sp *BarrierSpec) Sound(k ElideKind) bool {
	return int(k) < numElideKinds && sp.sound[k]
}

// allSound: every verdict applies. The legacy SATB modes keep the full
// verdict set so their Table 1/2 rates are bit-identical to the
// pre-spec implementation; no-barrier and card-marking execute no
// deletion barrier for the elision to be unsound against.
var allSound = [numElideKinds]bool{ElideNone: true, ElideRearrange: true, ElideNullOrSame: true, ElidePreNull: true}

// specs is the barrier-flavor table, indexed by BarrierMode.
var specs = [...]BarrierSpec{
	ModeNoBarrier: {
		Mode: ModeNoBarrier, Name: "no-barrier",
		SnapshotSound: false,
		sound:         allSound,
	},
	ModeConditional: {
		Mode: ModeConditional, Name: "conditional",
		ShadesPre: true, Checked: true, SnapshotSound: true,
		CostCheck: CostCheckOnly, CostFast: CostPreNull,
		CostShade: CostLogged, CostShadeBoth: CostLogged,
		sound: allSound,
	},
	ModeAlwaysLog: {
		Mode: ModeAlwaysLog, Name: "always-log",
		ShadesPre: true, SnapshotSound: true,
		CostFast:  CostAlwaysPreNull,
		CostShade: CostAlwaysLogged, CostShadeBoth: CostAlwaysLogged,
		sound: allSound,
	},
	ModeCardMarking: {
		Mode: ModeCardMarking, Name: "card-marking",
		Card: true, SnapshotSound: false,
		CostCard: CostCard,
		sound:    allSound,
	},
	ModeYuasa: {
		Mode: ModeYuasa, Name: "yuasa",
		ShadesPre: true, Checked: true, SnapshotSound: true,
		CostCheck: CostCheckOnly, CostFast: CostYuasa,
		CostShade: CostYuasa, CostShadeBoth: CostYuasa,
		// A pure deletion barrier: every proof about the overwritten
		// value transfers — pre-null (nothing to snapshot), null-or-same
		// (the snapshotted value is the one being stored, which stays
		// reachable through the target), and the rearrangement
		// trace-state protocol.
		sound: allSound,
	},
	ModeDijkstra: {
		Mode: ModeDijkstra, Name: "dijkstra",
		ShadesNew: true, Checked: true, SnapshotSound: false,
		CostCheck: CostCheckOnly, CostFast: CostDijkstraNull,
		CostShade: CostDijkstraShade, CostShadeBoth: CostDijkstraShade,
		// Insertion shading is about the NEW value; proofs about the
		// overwritten value say nothing about it. A pre-null store still
		// installs an edge the marker must see, so no deletion-style
		// verdict is sound.
		sound: [numElideKinds]bool{ElideNone: true},
	},
	ModeHybrid: {
		Mode: ModeHybrid, Name: "hybrid",
		ShadesPre: true, ShadesNew: true, Checked: true, SnapshotSound: true,
		CostCheck: CostCheckOnly, CostFast: CostHybridNull,
		CostShade: CostHybridOne, CostShadeBoth: CostHybridBoth,
		// Pre-null elides both halves: nothing to snapshot AND the null
		// pre-value proof came with freshness/locality that covers the
		// insertion half (an unmarked-since-allocation target is
		// rescanned from its roots). Null-or-same and rearrangement only
		// license dropping the deletion half, so the full barrier stays.
		sound: [numElideKinds]bool{ElideNone: true, ElidePreNull: true},
	},
}

// Spec returns the flavor descriptor for a mode.
func (m BarrierMode) Spec() *BarrierSpec {
	if m < 0 || int(m) >= len(specs) {
		panic(fmt.Sprintf("satb: no spec for barrier mode %d", int(m)))
	}
	return &specs[m]
}

// AllSpecs returns every barrier flavor in deterministic (mode) order.
func AllSpecs() []*BarrierSpec {
	out := make([]*BarrierSpec, len(specs))
	for i := range specs {
		out[i] = &specs[i]
	}
	return out
}

// SiteStats instruments one store site.
type SiteStats struct {
	// Key identifies the compiled site (method × pc).
	Key  SiteKey
	Kind SiteKind
	// Elide records the analysis verdict for the site, already projected
	// through the active flavor's soundness predicate.
	Elide ElideKind
	// Execs counts dynamic executions; PreNull counts executions whose
	// overwritten value was null. A site with Execs == PreNull is
	// "potentially pre-null" (§4.2).
	Execs   uint64
	PreNull uint64
	// NullOrSame counts executions whose overwritten value was null or
	// equal to the stored value (the §4.3 condition).
	NullOrSame uint64
	// Retraces counts rearrangement-store executions that had to
	// schedule an array retrace.
	Retraces uint64
}

// PotentiallyPreNull reports whether no execution ever saw a non-null
// pre-value.
func (s *SiteStats) PotentiallyPreNull() bool { return s.Execs > 0 && s.Execs == s.PreNull }

// Counters aggregates barrier instrumentation for one VM run.
type Counters struct {
	sites map[SiteKey]*SiteStats

	// Cost accumulates barrier cost units actually paid.
	Cost uint64
	// Logged counts deletion-shading log entries produced (pre-values
	// snapshotted by the SATB/Yuasa/hybrid barriers).
	Logged uint64
	// Shaded counts insertion-shading events (new values greyed by the
	// Dijkstra and hybrid barriers).
	Shaded uint64
	// CardsDirtied counts card-marking barrier hits.
	CardsDirtied uint64
	// StaticExecs counts putstatic reference stores (never elidable).
	StaticExecs uint64
}

// NewCounters returns empty instrumentation.
func NewCounters() *Counters {
	return &Counters{sites: map[SiteKey]*SiteStats{}}
}

// Site returns (creating if needed) the stats for a store site.
func (c *Counters) Site(key SiteKey, kind SiteKind, elide ElideKind) *SiteStats {
	s, ok := c.sites[key]
	if !ok {
		s = &SiteStats{Key: key, Kind: kind, Elide: elide}
		c.sites[key] = s
	}
	return s
}

// Sites returns all sites in deterministic order.
func (c *Counters) Sites() []*SiteStats {
	keys := make([]SiteKey, 0, len(c.sites))
	for k := range c.sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Method != keys[j].Method {
			return keys[i].Method < keys[j].Method
		}
		return keys[i].PC < keys[j].PC
	})
	out := make([]*SiteStats, len(keys))
	for i, k := range keys {
		out[i] = c.sites[k]
	}
	return out
}

// Summary holds the Table 1 row quantities for one run.
type Summary struct {
	TotalExecs  uint64 // compiled barrier executions (field + array)
	ElidedExecs uint64 // executions at pre-null-elided sites
	FieldExecs  uint64
	ArrayExecs  uint64
	FieldElided uint64
	ArrayElided uint64
	PotPreNull  uint64 // executions at potentially-pre-null sites
	// NullOrSameExecs counts executions at §4.3 null-or-same-elided
	// sites (reported separately from Table 1's eliminations).
	NullOrSameExecs uint64
	// RearrangeExecs counts executions at §4.3 rearrangement sites,
	// with Retraces the subset that had to schedule a rescan.
	RearrangeExecs uint64
	Retraces       uint64
	UnsoundSites   []SiteKey
}

// Summarize computes the Table 1 quantities, flagging any elided site that
// observed a non-null pre-value (which would indicate an analysis
// soundness bug, §4.2's correctness check).
func (c *Counters) Summarize() Summary {
	var sum Summary
	for _, s := range c.Sites() {
		sum.TotalExecs += s.Execs
		if s.Kind == FieldSite {
			sum.FieldExecs += s.Execs
		} else {
			sum.ArrayExecs += s.Execs
		}
		switch s.Elide {
		case ElidePreNull:
			sum.ElidedExecs += s.Execs
			if s.Kind == FieldSite {
				sum.FieldElided += s.Execs
			} else {
				sum.ArrayElided += s.Execs
			}
			if s.PreNull != s.Execs {
				sum.UnsoundSites = append(sum.UnsoundSites, s.Key)
			}
		case ElideNullOrSame:
			sum.NullOrSameExecs += s.Execs
			if s.NullOrSame != s.Execs {
				sum.UnsoundSites = append(sum.UnsoundSites, s.Key)
			}
		case ElideRearrange:
			// Correctness is protocol-level (validated by the GC's
			// snapshot-invariant checker), not per-store.
			sum.RearrangeExecs += s.Execs
			sum.Retraces += s.Retraces
		}
		if s.Execs > 0 && s.PreNull == s.Execs {
			sum.PotPreNull += s.Execs
		}
	}
	return sum
}

// String renders the summary in the paper's Table 1 terms.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total barrier execs: %d (field %d / array %d)\n",
		s.TotalExecs, s.FieldExecs, s.ArrayExecs)
	fmt.Fprintf(&b, "eliminated: %.1f%% total, %.1f%% field, %.1f%% array, potential pre-null %.1f%%",
		num.Pct(s.ElidedExecs, s.TotalExecs),
		num.Pct(s.FieldElided, s.FieldExecs),
		num.Pct(s.ArrayElided, s.ArrayExecs),
		num.Pct(s.PotPreNull, s.TotalExecs))
	if s.NullOrSameExecs > 0 {
		fmt.Fprintf(&b, ", null-or-same %.1f%%", num.Pct(s.NullOrSameExecs, s.TotalExecs))
	}
	if s.RearrangeExecs > 0 {
		fmt.Fprintf(&b, ", rearrange %.1f%% (%d retraces)", num.Pct(s.RearrangeExecs, s.TotalExecs), s.Retraces)
	}
	if len(s.UnsoundSites) > 0 {
		fmt.Fprintf(&b, "\nUNSOUND ELISIONS: %v", s.UnsoundSites)
	}
	return b.String()
}

// Logger receives barrier traffic (the concurrent marker).
type Logger interface {
	// LogPreValue records an overwritten non-null reference (deletion
	// shading).
	LogPreValue(r heap.Ref)
	// Shade records a stored non-null reference (insertion shading, the
	// Dijkstra/hybrid barriers' collector half).
	Shade(r heap.Ref)
	// MarkingActive reports whether a concurrent mark is in progress.
	MarkingActive() bool
	// DirtyCard records an incremental-update barrier hit on the object.
	DirtyCard(r heap.Ref)
	// TraceStateOf reports the collector's scan progress on an array
	// and Retrace schedules a full rescan — the §4.3 rearrangement
	// protocol's collector half.
	TraceStateOf(r heap.Ref) heap.TraceState
	Retrace(r heap.Ref)
}

// NopLogger discards barrier traffic (for barrier-cost runs without a
// collector).
type NopLogger struct{ Active bool }

func (n *NopLogger) LogPreValue(heap.Ref)                  {}
func (n *NopLogger) Shade(heap.Ref)                        {}
func (n *NopLogger) MarkingActive() bool                   { return n.Active }
func (n *NopLogger) DirtyCard(r heap.Ref)                  {}
func (n *NopLogger) TraceStateOf(heap.Ref) heap.TraceState { return heap.TraceUntraced }
func (n *NopLogger) Retrace(heap.Ref)                      {}

// addCost accumulates barrier cost units, saturating instead of wrapping
// so cost-model comparisons stay monotone under pathological run lengths.
func (c *Counters) addCost(units uint64) { c.Cost = num.AddSat(c.Cost, units) }

// shadeBody executes the non-card barrier body: gate on the marking
// phase (Checked flavors), then shade whichever of pre/newVal the spec
// keeps alive. Unchecked flavors pay body cost and count log entries
// even outside marking, but deliver entries only while it is active
// (always-log semantics, §4.5).
func (c *Counters) shadeBody(sp *BarrierSpec, log Logger, pre, newVal heap.Ref) {
	active := log.MarkingActive()
	if sp.Checked && !active {
		c.addCost(sp.CostCheck)
		return
	}
	shadePre := sp.ShadesPre && pre != heap.Null
	shadeNew := sp.ShadesNew && newVal != heap.Null
	switch {
	case shadePre && shadeNew:
		c.addCost(sp.CostShadeBoth)
	case shadePre || shadeNew:
		c.addCost(sp.CostShade)
	default:
		c.addCost(sp.CostFast)
	}
	if shadePre {
		c.Logged++
		if active {
			log.LogPreValue(pre)
		}
	}
	if shadeNew {
		c.Shaded++
		if active {
			log.Shade(newVal)
		}
	}
}

// BarrierSiteSpec executes the write barrier of flavor sp for a reference
// store of newVal whose overwritten value was pre, at the site whose stats
// record is s: the decoded VM engines resolve each store site once at
// decode time (Site) and call it directly. elide reflects the
// compile-time analysis verdict for the site, already projected through
// the flavor's soundness predicate; the instrumentation still observes
// elided stores (to validate soundness and compute the pre-null upper
// bound) but pays no barrier cost for them.
func (c *Counters) BarrierSiteSpec(sp *BarrierSpec, log Logger, s *SiteStats, elide ElideKind, pre, newVal, target heap.Ref) {
	s.Execs++
	if pre == heap.Null {
		s.PreNull++
	}
	if pre == heap.Null || pre == newVal {
		s.NullOrSame++
	}
	if elide == ElideRearrange {
		// The rearrangement protocol replaces deletion logging with a
		// trace-state check; overlap with the collector's scan schedules
		// a retrace. Under card marking the site degrades to a normal
		// card store.
		if sp.Card {
			c.addCost(sp.CostCard)
			c.CardsDirtied++
			log.DirtyCard(target)
			return
		}
		if !sp.ShadesPre && !sp.ShadesNew {
			return
		}
		if !log.MarkingActive() {
			if sp.Checked {
				c.addCost(sp.CostCheck)
			}
			return
		}
		c.addCost(CostTraceCheck)
		if log.TraceStateOf(target) != heap.TraceUntraced {
			c.addCost(CostRetrace)
			s.Retraces++
			log.Retrace(target)
		}
		return
	}
	if elide != ElideNone {
		return
	}
	if sp.Card {
		c.addCost(sp.CostCard)
		c.CardsDirtied++
		log.DirtyCard(target)
		return
	}
	if !sp.ShadesPre && !sp.ShadesNew {
		return
	}
	c.shadeBody(sp, log, pre, newVal)
}

// StaticBarrierSpec is the barrier of flavor sp for putstatic reference
// stores (always kept; the analyses never elide them). Statics have no
// per-object card, so the card flavor pays cost and counts the hit
// without dirtying.
func (c *Counters) StaticBarrierSpec(sp *BarrierSpec, log Logger, pre, newVal heap.Ref) {
	c.StaticExecs++
	if sp.Card {
		c.addCost(sp.CostCard)
		c.CardsDirtied++
		return
	}
	if !sp.ShadesPre && !sp.ShadesNew {
		return
	}
	c.shadeBody(sp, log, pre, newVal)
}
