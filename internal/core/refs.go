// Package core implements the paper's two barrier-elision analyses:
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
// A restricted form of the §4.3 "null-or-same" extension is also
// implemented (see nullorsame tracking in value.go).
package core

import (
	"fmt"
	"math/bits"

	"satbelim/internal/bytecode"
)

// RefID names an abstract reference within one method's analysis.
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
	kind    refKind
	arg     int    // argument index for refArg/refArgContent
	site    int    // allocation or call pc for refAlloc*/refCall*
	isArray bool   // allocation of an array
	elemRef bool   // array whose elements are references
	class   string // class name for object allocations
	unique  bool   // denotes exactly one runtime reference (strong update)
}

// String renders the reference's debug name ("Arg0", "R12/A", "RC7/B", …).
// Names are formatted on demand: diagnostics are their only reader, while
// reference tables are built for every method of every build.
func (i *refInfo) String() string {
	switch i.kind {
	case refArg:
		return fmt.Sprintf("Arg%d", i.arg)
	case refArgContent:
		return fmt.Sprintf("Arg%d*", i.arg)
	case refAllocA:
		return fmt.Sprintf("R%d/A", i.site)
	case refAllocB:
		return fmt.Sprintf("R%d/B", i.site)
	case refCallA:
		return fmt.Sprintf("RC%d/A", i.site)
	case refCallB:
		return fmt.Sprintf("RC%d/B", i.site)
	default:
		return "Global"
	}
}

// refTable holds the fixed universe of abstract references for one method.
// The set is fixed before the fixed point begins (paper §2.2: "the set of
// reference values and field identifiers is fixed and finite").
type refTable struct {
	infos []refInfo
	// allocA/allocB map an allocation pc to its two references.
	allocA map[int]RefID
	allocB map[int]RefID
	// argRef maps argument index (receiver = 0) to its reference, for
	// reference-typed arguments only.
	argRef map[int]RefID
	// callA/callB map an invoke pc whose callee returns a reference to
	// the A/B pair for its returned object (interprocedural mode only).
	callA map[int]RefID
	callB map[int]RefID
	// argContent maps argument index to its contents reference (summary
	// mode only; absent for a constructor's unique receiver, whose
	// fields genuinely start null).
	argContent map[int]RefID
}

// buildRefTable scans the method and creates GlobalRef, one reference per
// reference-typed argument, and an A/B pair per allocation site. With
// Options.SingleRefPerSite (the two-refs-per-site ablation) the A and B
// names coincide and nothing is unique. Under Options.Interprocedural,
// invoke sites whose callee returns a reference additionally get an A/B
// pair for the returned object; in summary mode (summaryMode) each
// non-unique reference argument gets a contents reference.
func buildRefTable(syms *bytecode.Symbols, m *bytecode.Method, calleeAt []int32, opts Options, summaryMode bool) *refTable {
	singleSummary := opts.SingleRefPerSite
	t := &refTable{
		allocA:     map[int]RefID{},
		allocB:     map[int]RefID{},
		argRef:     map[int]RefID{},
		callA:      map[int]RefID{},
		callB:      map[int]RefID{},
		argContent: map[int]RefID{},
	}
	t.infos = append(t.infos, refInfo{kind: refGlobal})
	for i := 0; i < m.NumArgs(); i++ {
		at := m.ArgType(i)
		if !at.IsRef() {
			continue
		}
		id := RefID(len(t.infos))
		// The implicit this of a constructor is unique and thread-local
		// in the initial state (paper §2.3).
		uniq := m.Ctor && i == 0
		t.infos = append(t.infos, refInfo{
			kind: refArg, arg: i, unique: uniq,
			isArray: at.Kind == bytecode.KindArray,
			elemRef: at.IsRefArray(),
			class:   at.Class,
		})
		t.argRef[i] = id
		if summaryMode && !uniq {
			c := RefID(len(t.infos))
			t.infos = append(t.infos, refInfo{kind: refArgContent, arg: i})
			t.argContent[i] = c
		}
	}
	for pc := range m.Code {
		in := &m.Code[pc]
		switch in.Op {
		case bytecode.OpNewInstance:
			a := RefID(len(t.infos))
			t.infos = append(t.infos, refInfo{
				kind: refAllocA, site: pc, class: in.Type.Class,
				unique: !singleSummary,
			})
			t.allocA[pc] = a
			if singleSummary {
				t.allocB[pc] = a
			} else {
				b := RefID(len(t.infos))
				t.infos = append(t.infos, refInfo{
					kind: refAllocB, site: pc, class: in.Type.Class,
				})
				t.allocB[pc] = b
			}
		case bytecode.OpNewArray:
			a := RefID(len(t.infos))
			t.infos = append(t.infos, refInfo{
				kind: refAllocA, site: pc, isArray: true,
				elemRef: in.Type.IsRef(),
				unique:  !singleSummary,
			})
			t.allocA[pc] = a
			if singleSummary {
				t.allocB[pc] = a
			} else {
				b := RefID(len(t.infos))
				t.infos = append(t.infos, refInfo{
					kind: refAllocB, site: pc, isArray: true,
					elemRef: in.Type.IsRef(),
				})
				t.allocB[pc] = b
			}
		case bytecode.OpInvoke:
			if !opts.Interprocedural || calleeAt[pc] < 0 {
				continue
			}
			ret := syms.Methods[calleeAt[pc]].Return
			if !ret.IsRef() {
				continue
			}
			a := RefID(len(t.infos))
			t.infos = append(t.infos, refInfo{
				kind: refCallA, site: pc, class: ret.Class,
				isArray: ret.Kind == bytecode.KindArray,
				elemRef: ret.IsRefArray(),
				unique:  !singleSummary,
			})
			t.callA[pc] = a
			if singleSummary {
				t.callB[pc] = a
			} else {
				b := RefID(len(t.infos))
				t.infos = append(t.infos, refInfo{
					kind: refCallB, site: pc, class: ret.Class,
					isArray: ret.Kind == bytecode.KindArray,
					elemRef: ret.IsRefArray(),
				})
				t.callB[pc] = b
			}
		}
	}
	return t
}

func (t *refTable) count() int            { return len(t.infos) }
func (t *refTable) info(r RefID) *refInfo { return &t.infos[r] }

// unique reports whether r denotes exactly one runtime reference.
func (t *refTable) unique(r RefID) bool { return t.infos[r].unique }

// RefSet is an immutable set of abstract references, stored as a bitset.
// Operations return new sets; the zero value is the empty set (which, as a
// RefVal, denotes "definitely null").
type RefSet struct{ words []uint64 }

// EmptyRefSet is the definitely-null reference value.
var EmptyRefSet = RefSet{}

// singletonCache interns the singleton sets for small ids. RefSet
// operations never mutate a words slice in place, so the cached backing
// arrays can be shared freely (including across goroutines). {GlobalRef}
// alone is materialized on every lookup of an escaped reference, so this
// removes the hottest allocation of the abstract interpreter.
var singletonCache = func() [256]RefSet {
	var c [256]RefSet
	for r := range c {
		w := make([]uint64, r/64+1)
		w[r/64] = 1 << (uint(r) % 64)
		c[r] = RefSet{words: w}
	}
	return c
}()

// SingletonRef returns {r}.
func SingletonRef(r RefID) RefSet {
	if int(r) < len(singletonCache) {
		return singletonCache[r]
	}
	return EmptyRefSet.With(r)
}

// Has reports membership.
func (s RefSet) Has(r RefID) bool {
	w := int(r) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(r)%64)) != 0
}

// IsEmpty reports whether the set is empty (the value is definitely null).
func (s RefSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// With returns s ∪ {r}.
func (s RefSet) With(r RefID) RefSet {
	w := int(r) / 64
	n := len(s.words)
	if w >= n {
		n = w + 1
	}
	out := make([]uint64, n)
	copy(out, s.words)
	out[w] |= 1 << (uint(r) % 64)
	return RefSet{words: out}
}

// Without returns s \ {r}.
func (s RefSet) Without(r RefID) RefSet {
	if !s.Has(r) {
		return s
	}
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	out[int(r)/64] &^= 1 << (uint(r) % 64)
	return RefSet{words: out}
}

// Union returns s ∪ t. When one side contains the other the larger side is
// returned unchanged (cheap convergence checks).
func (s RefSet) Union(t RefSet) RefSet {
	if s.Contains(t) {
		return s
	}
	if t.Contains(s) {
		return t
	}
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	out := make([]uint64, n)
	copy(out, s.words)
	for i, w := range t.words {
		out[i] |= w
	}
	return RefSet{words: out}
}

// Intersects reports whether s ∩ t is non-empty.
func (s RefSet) Intersects(t RefSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether t ⊆ s.
func (s RefSet) Contains(t RefSet) bool {
	for i, w := range t.words {
		if w == 0 {
			continue
		}
		if i >= len(s.words) || s.words[i]&w != w {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s RefSet) Equal(t RefSet) bool { return s.Contains(t) && t.Contains(s) }

// Single returns the only member when the set is a singleton.
func (s RefSet) Single() (RefID, bool) {
	found := false
	var r RefID
	for i, w := range s.words {
		for w != 0 {
			if found {
				return 0, false
			}
			bit := w & (-w)
			r = RefID(i*64 + trailingZeros(bit))
			found = true
			w &^= bit
		}
	}
	return r, found
}

// ForEach calls f for each member in increasing order.
func (s RefSet) ForEach(f func(RefID)) {
	for i, w := range s.words {
		for w != 0 {
			bit := w & (-w)
			f(RefID(i*64 + trailingZeros(bit)))
			w &^= bit
		}
	}
}

// Count returns the cardinality.
func (s RefSet) Count() int {
	n := 0
	s.ForEach(func(RefID) { n++ })
	return n
}

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

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
