// Package domain is the abstract domain of the paper's two barrier-elision
// analyses, with its join and its transfer functions:
//
//   - The field analysis (§2): a flow-sensitive, intra-procedural abstract
//     interpretation over ⟨ρ, σ, NL, stk⟩ that identifies pre-null writes
//     to object fields — putfield sites whose target object is still
//     thread-local and whose target field provably contains null. Each
//     allocation site gets two abstract references, R_id/A for the most
//     recently allocated object (unique, admitting strong update) and
//     R_id/B summarizing older ones.
//
//   - The array analysis (§3): an extension tracking array lengths (Len)
//     and uninitialized null ranges (NR) with symbolic integers, whose
//     state merge (intval.Merge, the paper's Figure 1) discovers common
//     strides across loop iterations and thereby proves loop-filling
//     array stores initializing.
//
// The §4.3 extensions (null-or-same in value.go, swaps in rearrange.go)
// and the summary lattice (summary.go) are here too. Iterating the domain
// is internal/core's, which reaches a state only through the operations
// exported here.
package domain

import (
	"fmt"
	"math/bits"
	"slices"

	"satbelim/internal/bytecode"
)

// RefID names an abstract reference of one method: a number of the method's
// reference table, which every analysis of the method in a build shares.
type RefID int32

// GlobalRefID is the abstract reference summarizing every object allocated
// outside the analyzed method and not passed to it as an argument.
const GlobalRefID RefID = 0

// refKind classifies an abstract reference.
type refKind int

const (
	refGlobal refKind = iota
	refArg            // R_arg(i)
	refAllocA         // most recent object of an allocation site
	refAllocB         // summary of the site's older objects
	// refCallA/refCallB name the object returned by a call site whose
	// callee summary proves ReturnsFresh (interprocedural mode): the
	// most recent returned object and the summary of older ones. They
	// behave like an allocation site's A/B pair — the callee guarantees
	// the object is thread-local with all reference fields null — except
	// integer fields are unknown (the callee may have initialized them).
	refCallA
	refCallB
	// refArgContent abstracts, in summary mode only, the unknown
	// caller-provided contents of argument i: whatever a read of an
	// untracked field of the argument (or of other contents) may yield.
	// Publishing or mutating it compromises the argument — the caller's
	// facts about objects reachable from the argument die with it.
	refArgContent
)

// refInfo describes one abstract reference.
type refInfo struct {
	kind   refKind
	arg    int  // argument index for refArg/refArgContent
	site   int  // allocation or call pc for refAlloc*/refCall*
	unique bool // denotes exactly one runtime reference (strong update)
	// arr is an array's index in a state's Len and NR rows, -1 for a
	// non-array: only arrays carry those facts.
	arr int32
}

// RefTable holds the fixed universe of abstract references for one method.
// The set is fixed before the fixed point begins (paper §2.2: "the set of
// reference values and field identifiers is fixed and finite"): the table is
// built once per method per build and only read after
// that, by every summary round of the method's component and by its judging
// pass.
//
// GlobalRef comes first, then one reference per reference-typed argument and
// an A/B pair per site in pc order — the judged references, all a judging
// analysis uses — and last the arguments' contents references, which only
// summary mode reads.
type RefTable struct {
	infos []refInfo
	// judged counts the judged references.
	judged int
	// siteA is, per pc, the A name of an allocation site or of an invoke
	// whose callee returns a reference (interprocedural builds only), and 0
	// elsewhere; see site.
	siteA []RefID
	// argRef and argContent are, per argument index (receiver = 0), the
	// argument's reference and its contents reference, 0 for none: an integer
	// argument has neither, a constructor's unique receiver no contents (its
	// fields genuinely start null).
	argRef, argContent []RefID
	// numArrays is the length of a state's Len and NR rows.
	numArrays int
}

// NewRefTable scans the method and creates GlobalRef, one reference per
// reference-typed argument, an A/B pair per allocation site and, last, a
// contents reference per non-unique reference argument. With
// Config.SingleRefPerSite (the two-refs-per-site ablation) the A and B
// names coincide and nothing is unique. Under Config.Interprocedural,
// invoke sites whose callee returns a reference additionally get an A/B
// pair for the returned object. A counting pass bounds the references, so
// the table takes three allocations whatever the method: itself, its
// references and its per-argument and per-pc names.
func NewRefTable(syms *bytecode.Symbols, m *bytecode.Method, calleeAt []int32, cfg Config) *RefTable {
	n := m.NumArgs()
	// callSite reports whether the invoke at pc names a reference result.
	callSite := func(pc int) (ok, isArray bool) {
		if !cfg.Interprocedural || calleeAt[pc] < 0 {
			return false, false
		}
		ret := syms.Methods[calleeAt[pc]].Return
		return ret.IsRef(), ret.Kind == bytecode.KindArray
	}
	sites := 0
	for pc := range m.Code {
		switch m.Code[pc].Op {
		case bytecode.OpNewInstance, bytecode.OpNewArray:
			sites++
		case bytecode.OpInvoke:
			if ok, _ := callSite(pc); ok {
				sites++
			}
		}
	}
	names := make([]RefID, 2*n+len(m.Code))
	t := &RefTable{argRef: names[:n:n], argContent: names[n : 2*n : 2*n], siteA: names[2*n:],
		// GlobalRef, two per argument (itself and its contents), two per site.
		infos: make([]refInfo, 0, 1+2*n+2*sites)}
	add := func(info refInfo, isArray bool) RefID {
		info.arr = -1
		if isArray {
			info.arr = int32(t.numArrays)
			t.numArrays++
		}
		t.infos = append(t.infos, info)
		return RefID(len(t.infos) - 1)
	}
	// addSite names a site's A reference and, unless the ablation merges
	// them, its B reference (whose kind follows A's).
	addSite := func(kind refKind, pc int, isArray bool) {
		t.siteA[pc] = add(refInfo{kind: kind, site: pc, unique: !cfg.SingleRefPerSite}, isArray)
		if !cfg.SingleRefPerSite {
			add(refInfo{kind: kind + 1, site: pc}, isArray)
		}
	}
	add(refInfo{kind: refGlobal}, false)
	for i := range n {
		if at := m.ArgType(i); at.IsRef() {
			// The implicit this of a constructor is unique and thread-local
			// in the initial state (paper §2.3).
			t.argRef[i] = add(refInfo{kind: refArg, arg: i, unique: m.Ctor && i == 0}, at.Kind == bytecode.KindArray)
		}
	}
	for pc := range m.Code {
		switch m.Code[pc].Op {
		case bytecode.OpNewInstance:
			addSite(refAllocA, pc, false)
		case bytecode.OpNewArray:
			addSite(refAllocA, pc, true)
		case bytecode.OpInvoke:
			if ok, isArray := callSite(pc); ok {
				addSite(refCallA, pc, isArray)
			}
		}
	}
	t.judged = len(t.infos)
	for i, r := range t.argRef {
		if r != 0 && !t.infos[r].unique {
			t.argContent[i] = add(refInfo{kind: refArgContent, arg: i}, false)
		}
	}
	return t
}

// site returns the A and B names of the site at pc — one name twice under
// the single-reference ablation, GlobalRef twice where no site is.
func (t *RefTable) site(pc int) (a, b RefID) {
	if a = t.siteA[pc]; t.infos[a].unique {
		return a, a + 1
	}
	return a, a
}

// Judged counts the references a judging analysis of the method uses
// (MethodReport.AbstractRefs).
func (t *RefTable) Judged() int { return t.judged }

func (t *RefTable) info(r RefID) *refInfo { return &t.infos[r] }

// unique reports whether r denotes exactly one runtime reference.
func (t *RefTable) unique(r RefID) bool { return t.infos[r].unique }

// RefSet is an immutable set of abstract references, stored as a bitset:
// ids below 64 in lo, the rest in the words hi points to (word i holds ids
// 64(i+1) to 64(i+1)+63). A method's references are fixed and finite (paper
// §2.2) and few — no method of the corpus has more than 57 — so a set is one
// word in practice, and With, Without and Union on it return values instead
// of allocating. A spilled set is canonical — hi is nil or its last word is
// non-zero — and its words are never written after they are built, so sets
// share them freely. The zero value is the empty set (which, as a RefVal,
// denotes "definitely null").
type RefSet struct {
	lo uint64
	hi *[]uint64
}

// EmptyRefSet is the definitely-null reference value.
var EmptyRefSet = RefSet{}

// SingletonRef returns {r}.
func SingletonRef(r RefID) RefSet { return EmptyRefSet.With(r) }

// high returns the spilled words (nil when there are none).
func (s RefSet) high() []uint64 {
	if s.hi == nil {
		return nil
	}
	return *s.hi
}

// spill returns words as a canonical high part: trailing zero words
// dropped, nil when nothing is left.
func spill(words []uint64) *[]uint64 {
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	if len(words) == 0 {
		return nil
	}
	return &words
}

// containsWords reports whether every bit of t is set in s.
func containsWords(s, t []uint64) bool {
	if len(t) > len(s) {
		return false // canonical: t's last word is non-zero
	}
	for i, w := range t {
		if s[i]&w != w {
			return false
		}
	}
	return true
}

// Has reports membership.
func (s RefSet) Has(r RefID) bool {
	if r < 64 {
		return s.lo&(1<<uint(r)) != 0
	}
	h, w := s.high(), int(r)/64-1
	return w < len(h) && h[w]&(1<<(uint(r)%64)) != 0
}

// IsEmpty reports whether the set is empty (the value is definitely null).
func (s RefSet) IsEmpty() bool { return s.lo == 0 && s.hi == nil }

// With returns s ∪ {r}.
func (s RefSet) With(r RefID) RefSet {
	if r < 64 {
		s.lo |= 1 << uint(r)
		return s
	}
	if s.Has(r) {
		return s
	}
	h, w := s.high(), int(r)/64-1
	out := make([]uint64, max(len(h), w+1))
	copy(out, h)
	out[w] |= 1 << (uint(r) % 64)
	s.hi = &out
	return s
}

// Without returns s \ {r}.
func (s RefSet) Without(r RefID) RefSet {
	if r < 64 {
		s.lo &^= 1 << uint(r)
		return s
	}
	if !s.Has(r) {
		return s
	}
	out := slices.Clone(*s.hi)
	out[int(r)/64-1] &^= 1 << (uint(r) % 64)
	s.hi = spill(out)
	return s
}

// Union returns s ∪ t. When one side's spilled words contain the other's,
// the result shares them (cheap convergence checks).
func (s RefSet) Union(t RefSet) RefSet {
	s.lo |= t.lo
	a, b := s.high(), t.high()
	switch {
	case containsWords(a, b):
	case containsWords(b, a):
		s.hi = t.hi
	default:
		if len(a) < len(b) {
			a, b = b, a
		}
		out := slices.Clone(a)
		for i, w := range b {
			out[i] |= w
		}
		s.hi = &out
	}
	return s
}

// Intersects reports whether s ∩ t is non-empty.
func (s RefSet) Intersects(t RefSet) bool {
	if s.lo&t.lo != 0 {
		return true
	}
	a, b := s.high(), t.high()
	for i := range min(len(a), len(b)) {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether t ⊆ s.
func (s RefSet) Contains(t RefSet) bool {
	return t.lo&^s.lo == 0 && containsWords(s.high(), t.high())
}

// Equal reports set equality.
func (s RefSet) Equal(t RefSet) bool {
	return s.lo == t.lo && slices.Equal(s.high(), t.high())
}

// Single returns the only member when the set is a singleton.
func (s RefSet) Single() (RefID, bool) {
	if s.Count() != 1 {
		return 0, false
	}
	if s.lo != 0 {
		return RefID(bits.TrailingZeros64(s.lo)), true
	}
	h := s.high() // canonical: the member is in the last word
	return RefID(64*len(h) + bits.TrailingZeros64(h[len(h)-1])), true
}

// ForEach calls f for each member in increasing order.
func (s RefSet) ForEach(f func(RefID)) {
	forEachBit(s.lo, 0, f)
	for i, w := range s.high() {
		forEachBit(w, 64*(i+1), f)
	}
}

// forEachBit calls f with base + the index of each bit set in w, in
// increasing order.
func forEachBit(w uint64, base int, f func(RefID)) {
	for w != 0 {
		f(RefID(base + bits.TrailingZeros64(w)))
		w &= w - 1
	}
}

// Count returns the cardinality.
func (s RefSet) Count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.high() {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the set with the default naming (ids).
func (s RefSet) String() string {
	if s.IsEmpty() {
		return "{null}"
	}
	out := "{"
	first := true
	s.ForEach(func(r RefID) {
		if !first {
			out += ","
		}
		first = false
		out += fmt.Sprintf("r%d", r)
	})
	return out + "}"
}
