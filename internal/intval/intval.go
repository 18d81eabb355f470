// Package intval implements the symbolic integer domain of the paper's
// array analysis (§3.2): IntVals are linear combinations
//
//	a·v + k₀·c₀ + … + kₙ·cₙ + b
//
// with at most one term in a *variable unknown* v (a value that may differ
// between states, typically a loop induction value), any number of terms
// in *constant unknowns* cᵢ (values fixed across all states, such as an
// argument array's length), and an integer constant b. The lattice top ⊤
// represents "unknown integer".
//
// The companion Merge function implements the paper's Figure 1
// merge_intvals procedure: when two states join with components that
// differ by a common constant stride, a shared variable unknown is
// invented so that relationships between components (e.g. a loop index and
// the low bound of an array's uninitialized range) survive the merge.
package intval

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// VarU names a variable unknown.
type VarU int32

// ConstU names a constant unknown.
type ConstU int32

// Term is one kᵢ·cᵢ product.
type Term struct {
	C ConstU
	K int64
}

// IntVal is a symbolic integer value. The zero IntVal is the constant 0.
// IntVals are immutable; operations return new values. Abstract states hold
// IntVals by the thousand, so an IntVal is four words: the two sub-word
// fields share one, and the term list is a single pointer.
type IntVal struct {
	top bool
	v   VarU     // valid when a != 0
	a   int64    // variable-unknown coefficient
	ts  termList // constant-unknown terms
	b   int64
}

// termList is an immutable list of constant-unknown terms, sorted by C, all
// K != 0, in one word: nil when empty, otherwise a pointer to a header Term
// whose C counts the terms that follow it in the same allocation. A list is
// never written after it is built, so values share lists freely, including
// across goroutines. reflect.DeepEqual sees only the header, so it equates
// lists of the same length: compare IntVals with Equal.
type termList struct{ hdr *Term }

// terms returns the list's terms.
func (l termList) terms() []Term {
	if l.hdr == nil {
		return nil
	}
	return unsafe.Slice(l.hdr, int(l.hdr.C)+1)[1:]
}

// newTerms returns an empty buffer for a list of at most n terms: append
// the terms, then seal it.
func newTerms(n int) []Term { return make([]Term, 1, n+1) }

// seal makes a list of a buffer newTerms returned.
func seal(buf []Term) termList {
	if len(buf) == 1 {
		return termList{}
	}
	buf[0].C = ConstU(len(buf) - 1)
	return termList{&buf[0]}
}

// mapTerms returns the list of f applied to each of l's terms, or false
// when f rejects one.
func (l termList) mapTerms(f func(Term) (Term, bool)) (termList, bool) {
	if l.hdr == nil {
		return l, true
	}
	ts := l.terms()
	buf := newTerms(len(ts))
	for _, t := range ts {
		u, ok := f(t)
		if !ok {
			return termList{}, false
		}
		buf = append(buf, u)
	}
	return seal(buf), true
}

// Top is the unknown-integer lattice top.
var Top = IntVal{top: true}

// Const returns the constant value b.
func Const(b int64) IntVal { return IntVal{b: b} }

// OfVar returns the value 1·v.
func OfVar(v VarU) IntVal { return IntVal{a: 1, v: v} }

// constUCache interns the one-term lists of small constant unknowns.
var constUCache = func() (c [64][2]Term) {
	for i := range c {
		c[i] = [2]Term{{C: 1}, {C: ConstU(i), K: 1}}
	}
	return c
}()

// OfConstU returns the value 1·c.
func OfConstU(c ConstU) IntVal {
	if int(c) < len(constUCache) {
		return IntVal{ts: termList{&constUCache[c][0]}}
	}
	return IntVal{ts: seal(append(newTerms(1), Term{C: c, K: 1}))}
}

// IsTop reports whether i is ⊤.
func (i IntVal) IsTop() bool { return i.top }

// AsConst returns the literal value when i is a pure integer constant.
func (i IntVal) AsConst() (int64, bool) {
	if i.top || i.a != 0 || i.ts.hdr != nil {
		return 0, false
	}
	return i.b, true
}

// VarTerm returns the variable-unknown coefficient and name (a == 0 means
// no variable term).
func (i IntVal) VarTerm() (a int64, v VarU) { return i.a, i.v }

// HasVar reports whether i has a variable-unknown term.
func (i IntVal) HasVar() bool { return !i.top && i.a != 0 }

// Equal reports structural equality (the only equality that matters in
// this normalized representation).
func (i IntVal) Equal(j IntVal) bool {
	if i.top || j.top {
		return i.top == j.top
	}
	if i.a != j.a || (i.a != 0 && i.v != j.v) || i.b != j.b {
		return false
	}
	return i.ts == j.ts || slices.Equal(i.ts.terms(), j.ts.terms())
}

// addTerms merges two sorted term lists. A sum with an empty list is the
// other list itself.
func addTerms(xl, yl termList) termList {
	if xl.hdr == nil {
		return yl
	}
	if yl.hdr == nil {
		return xl
	}
	x, y := xl.terms(), yl.terms()
	out := newTerms(len(x) + len(y))
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j >= len(y) || (i < len(x) && x[i].C < y[j].C):
			out = append(out, x[i])
			i++
		case i >= len(x) || y[j].C < x[i].C:
			out = append(out, y[j])
			j++
		default:
			if k := x[i].K + y[j].K; k != 0 {
				out = append(out, Term{C: x[i].C, K: k})
			}
			i++
			j++
		}
	}
	return seal(out)
}

// Add returns i + j, or ⊤ when the sum would need two variable unknowns.
func (i IntVal) Add(j IntVal) IntVal {
	if i.top || j.top {
		return Top
	}
	r := IntVal{b: i.b + j.b, ts: addTerms(i.ts, j.ts)}
	switch {
	case i.a == 0:
		r.a, r.v = j.a, j.v
	case j.a == 0:
		r.a, r.v = i.a, i.v
	case i.v == j.v:
		r.a = i.a + j.a
		if r.a != 0 {
			r.v = i.v
		}
	default:
		return Top
	}
	return r
}

// Neg returns -i.
func (i IntVal) Neg() IntVal {
	if i.top {
		return Top
	}
	return i.MulK(-1)
}

// Sub returns i - j.
func (i IntVal) Sub(j IntVal) IntVal { return i.Add(j.Neg()) }

// MulK returns k·i.
func (i IntVal) MulK(k int64) IntVal {
	if i.top {
		return Top
	}
	switch k {
	case 0:
		return IntVal{}
	case 1:
		return i
	}
	ts, _ := i.ts.mapTerms(func(t Term) (Term, bool) { return Term{C: t.C, K: t.K * k}, true })
	return IntVal{a: i.a * k, v: i.v, ts: ts, b: i.b * k}
}

// Mul returns i·j when one side is a literal constant, ⊤ otherwise
// (products of unknowns leave the linear domain).
func (i IntVal) Mul(j IntVal) IntVal {
	if k, ok := j.AsConst(); ok {
		return i.MulK(k)
	}
	if k, ok := i.AsConst(); ok {
		return j.MulK(k)
	}
	return Top
}

// DivExact returns i/k when every coefficient is exactly divisible.
func (i IntVal) DivExact(k int64) (IntVal, bool) {
	if i.top || k == 0 {
		return Top, false
	}
	if i.a%k != 0 || i.b%k != 0 {
		return Top, false
	}
	ts, ok := i.ts.mapTerms(func(t Term) (Term, bool) { return Term{C: t.C, K: t.K / k}, t.K%k == 0 })
	if !ok {
		return Top, false
	}
	return IntVal{a: i.a / k, v: i.v, ts: ts, b: i.b / k}, true
}

// SubstVar returns i with its variable term a·v replaced by a·s. The
// result is i itself when i has no variable term or a different variable.
func (i IntVal) SubstVar(v VarU, s IntVal) IntVal {
	if i.top || i.a == 0 || i.v != v {
		return i
	}
	base := IntVal{ts: i.ts, b: i.b}
	return base.Add(s.MulK(i.a))
}

// String renders the value for diagnostics, e.g. "2*v3 + c0 - 1".
func (i IntVal) String() string {
	if i.top {
		return "⊤"
	}
	var parts []string
	if i.a != 0 {
		switch i.a {
		case 1:
			parts = append(parts, fmt.Sprintf("v%d", i.v))
		case -1:
			parts = append(parts, fmt.Sprintf("-v%d", i.v))
		default:
			parts = append(parts, fmt.Sprintf("%d*v%d", i.a, i.v))
		}
	}
	for _, t := range i.ts.terms() {
		switch t.K {
		case 1:
			parts = append(parts, fmt.Sprintf("c%d", t.C))
		case -1:
			parts = append(parts, fmt.Sprintf("-c%d", t.C))
		default:
			parts = append(parts, fmt.Sprintf("%d*c%d", t.K, t.C))
		}
	}
	if i.b != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", i.b))
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}

// Namer generates fresh unknowns. The zero value is ready to use.
type Namer struct {
	nextVar   VarU
	nextConst ConstU
}

// FreshVar returns a new variable unknown.
func (n *Namer) FreshVar() VarU {
	v := n.nextVar
	n.nextVar++
	return v
}

// FreshConst returns a new constant unknown.
func (n *Namer) FreshConst() ConstU {
	c := n.nextConst
	n.nextConst++
	return c
}

// MergeCtx carries the shared stride/substitution maps of one state merge
// (paper Figure 1): U maps constant strides to the variable unknowns
// invented for them, and Mu1/Mu2 record what each variable stands for in
// the two merged states. All integer components of a single state merge
// must share one MergeCtx — that sharing is what lets the analysis
// discover that, e.g., a loop index and an uninitialized-range bound vary
// together. The maps are nil until a merge first records a stride or a
// binding: most state merges meet no differing integers at all.
type MergeCtx struct {
	N        *Namer
	U        map[int64]VarU
	Mu1, Mu2 map[VarU]IntVal
	// Disabled turns off variable-unknown invention (the NoStride
	// ablation): differing components merge straight to ⊤.
	Disabled bool
}

// NewMergeCtx returns an empty context drawing fresh names from n.
func NewMergeCtx(n *Namer) *MergeCtx { return &MergeCtx{N: n} }

// Reset empties the context for the next state merge, drawing fresh names
// from n, with invention off when disabled. The maps keep their storage, so
// a context reset between merges allocates only until it has met the
// largest merge; its results are those of a fresh context.
func (c *MergeCtx) Reset(n *Namer, disabled bool) {
	c.N, c.Disabled = n, disabled
	clear(c.U)
	clear(c.Mu1)
	clear(c.Mu2)
}

// bind records in *mu (Mu1 or Mu2) that v stands for s in that state.
func bind(mu *map[VarU]IntVal, v VarU, s IntVal) {
	if *mu == nil {
		*mu = map[VarU]IntVal{}
	}
	(*mu)[v] = s
}

// Merge merges one integer state component, following Figure 1 of the
// paper. i1 comes from the first state (Mu1 side), i2 from the second.
func Merge(i1, i2 IntVal, ctx *MergeCtx) IntVal {
	if i1.top || i2.top {
		return Top
	}
	if i1.Equal(i2) {
		return i1
	}
	if ctx == nil || ctx.Disabled {
		return Top
	}
	mu1, mu2 := &ctx.Mu1, &ctx.Mu2
	if !i1.HasVar() {
		i1, i2 = i2, i1
		mu1, mu2 = mu2, mu1
	}
	delta := i2.Sub(i1)
	if d, isConst := delta.AsConst(); isConst && !i1.HasVar() {
		// Neither side has a variable term and they differ by the
		// constant stride d: reuse or invent the stride's variable.
		if v, ok := ctx.U[d]; ok {
			off := i1.Sub((*mu1)[v])
			if off.HasVar() {
				return Top
			}
			return OfVar(v).Add(off)
		}
		v := ctx.N.FreshVar()
		if ctx.U == nil {
			ctx.U = map[int64]VarU{}
		}
		ctx.U[d] = v
		bind(mu1, v, i1)
		bind(mu2, v, i2)
		return OfVar(v)
	}
	if i1.HasVar() {
		_, v1 := i1.VarTerm()
		if s, ok := (*mu2)[v1]; ok {
			if i1.SubstVar(v1, s).Equal(i2) {
				return i1
			}
			return Top
		}
		if s, ok := match(i1, i2); ok {
			bind(mu2, v1, s)
			return i1
		}
		return Top
	}
	return Top
}

// match is called when i1 has a variable term a₁·v₁; it succeeds when i2
// has either a variable term a₁·v₂ with the same coefficient — returning
// an IntVal expressing v₁ as v₂ plus a constant expression — or no
// variable term at all, in which case v₁ is bound to the constant
// expression (i2 - rest(i1))/a₁. The latter generalizes the paper's match
// and is what lets an in-progress loop state (index = v) merge with a
// fresh outer-iteration state (index = 0) without collapsing to ⊤: the
// substitution v ↦ 0 records what v stands for in the incoming state, and
// the fixed-point validation pass checks it like any other assumption.
func match(i1, i2 IntVal) (IntVal, bool) {
	a1, _ := i1.VarTerm()
	a2, v2 := i2.VarTerm()
	if a1 == 0 {
		return Top, false
	}
	r1 := IntVal{ts: i1.ts, b: i1.b}
	if a2 == 0 {
		d, ok := i2.Sub(r1).DivExact(a1)
		if !ok {
			return Top, false
		}
		return d, true
	}
	if a2 != a1 {
		return Top, false
	}
	r2 := IntVal{ts: i2.ts, b: i2.b}
	d, ok := r2.Sub(r1).DivExact(a1)
	if !ok {
		return Top, false
	}
	return OfVar(v2).Add(d), true
}
