package intval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConstArithmetic(t *testing.T) {
	a, b := Const(7), Const(3)
	cases := []struct {
		got  IntVal
		want int64
	}{
		{a.Add(b), 10},
		{a.Sub(b), 4},
		{a.Neg(), -7},
		{a.MulK(3), 21},
		{a.Mul(b), 21},
	}
	for i, c := range cases {
		v, ok := c.got.AsConst()
		if !ok || v != c.want {
			t.Errorf("case %d: got %s, want %d", i, c.got, c.want)
		}
	}
}

func TestSymbolicArithmetic(t *testing.T) {
	var n Namer
	c0 := OfConstU(n.FreshConst())
	v0 := OfVar(n.FreshVar())

	// 2*c0 - 1 (the paper's expand example upper bound).
	ub := c0.MulK(2).Sub(Const(1))
	if ub.String() != "2*c0 - 1" {
		t.Errorf("ub = %s", ub)
	}
	// (v0 + 1) - v0 = 1
	d := v0.Add(Const(1)).Sub(v0)
	if k, ok := d.AsConst(); !ok || k != 1 {
		t.Errorf("delta = %s", d)
	}
	// v0 + c0 keeps both terms.
	s := v0.Add(c0)
	if !s.HasVar() || s.IsTop() {
		t.Errorf("v0+c0 = %s", s)
	}
	// Two distinct variable unknowns cannot be added.
	v1 := OfVar(n.FreshVar())
	if !v0.Add(v1).IsTop() {
		t.Error("v0+v1 should be top")
	}
	// Same variable adds coefficients.
	if got := v0.Add(v0); got.Equal(Top) || got.a != 2 {
		t.Errorf("v0+v0 = %s", got)
	}
	// v0 - v0 cancels the variable.
	if k, ok := v0.Sub(v0).AsConst(); !ok || k != 0 {
		t.Error("v0-v0 should be 0")
	}
	// Products of unknowns are top.
	if !v0.Mul(c0).IsTop() {
		t.Error("v0*c0 should be top")
	}
	// Top is absorbing.
	if !Top.Add(Const(1)).IsTop() || !Const(1).Sub(Top).IsTop() || !Top.MulK(0).IsTop() {
		t.Error("top must absorb")
	}
}

func TestMulKZero(t *testing.T) {
	var n Namer
	v := OfVar(n.FreshVar()).Add(OfConstU(n.FreshConst())).Add(Const(5))
	if k, ok := v.MulK(0).AsConst(); !ok || k != 0 {
		t.Error("x*0 should be 0")
	}
}

func TestDivExact(t *testing.T) {
	var n Namer
	c := OfConstU(n.FreshConst())
	x := c.MulK(4).Add(Const(8))
	got, ok := x.DivExact(4)
	if !ok || !got.Equal(c.Add(Const(2))) {
		t.Errorf("(4c+8)/4 = %s, ok=%v", got, ok)
	}
	if _, ok := x.DivExact(3); ok {
		t.Error("(4c+8)/3 must fail")
	}
	if _, ok := x.DivExact(0); ok {
		t.Error("division by zero must fail")
	}
}

func TestSubstVar(t *testing.T) {
	var n Namer
	v := n.FreshVar()
	x := OfVar(v).MulK(2).Add(Const(3)) // 2v+3
	s := OfVar(v).Add(Const(1))         // v -> v+1
	got := x.SubstVar(v, s)
	want := OfVar(v).MulK(2).Add(Const(5)) // 2(v+1)+3 = 2v+5
	if !got.Equal(want) {
		t.Errorf("subst = %s, want %s", got, want)
	}
	// Substituting an unrelated variable is identity.
	other := n.FreshVar()
	if !x.SubstVar(other, Const(0)).Equal(x) {
		t.Error("unrelated substitution should not change the value")
	}
}

func TestMergeEqualValues(t *testing.T) {
	var n Namer
	ctx := NewMergeCtx(&n)
	x := OfConstU(n.FreshConst()).Add(Const(2))
	if got := Merge(x, x, ctx); !got.Equal(x) {
		t.Errorf("merge(x,x) = %s", got)
	}
	if len(ctx.U) != 0 {
		t.Error("equal merge should not invent variables")
	}
}

func TestMergeConstStrideCreatesSharedVariable(t *testing.T) {
	var n Namer
	ctx := NewMergeCtx(&n)
	// Two components both stepping by 1: i merges 0 with 1, and the
	// range bound merges 0 with 1. They must share one variable.
	mi := Merge(Const(0), Const(1), ctx)
	mb := Merge(Const(0), Const(1), ctx)
	if !mi.HasVar() || !mb.HasVar() {
		t.Fatalf("merged = %s, %s", mi, mb)
	}
	if !mi.Equal(mb) {
		t.Errorf("same-stride components should merge to the same variable: %s vs %s", mi, mb)
	}
	// A component offset by a constant reuses the variable plus delta.
	mc := Merge(Const(5), Const(6), ctx)
	if !mc.Equal(mi.Add(Const(5))) {
		t.Errorf("offset component = %s, want %s", mc, mi.Add(Const(5)))
	}
	// A different stride gets a different variable.
	md := Merge(Const(0), Const(2), ctx)
	if md.Equal(mi) {
		t.Error("different strides must not share a variable")
	}
}

func TestMergeValidationIteration(t *testing.T) {
	// Second round of the paper's loop: merging v with v+1 must return v
	// by extending μ2 with v -> v+1, and a second component with the
	// same pair must agree through the recorded substitution.
	var n Namer
	ctx0 := NewMergeCtx(&n)
	v := Merge(Const(0), Const(1), ctx0) // invent v

	ctx := NewMergeCtx(&n)
	got1 := Merge(v, v.Add(Const(1)), ctx)
	if !got1.Equal(v) {
		t.Fatalf("merge(v, v+1) = %s, want %s", got1, v)
	}
	got2 := Merge(v, v.Add(Const(1)), ctx)
	if !got2.Equal(v) {
		t.Fatalf("second merge(v, v+1) = %s, want %s", got2, v)
	}
	// An inconsistent second component must fall to top.
	got3 := Merge(v, v.Add(Const(2)), ctx)
	if !got3.IsTop() {
		t.Errorf("merge(v, v+2) with μ2[v]=v+1 = %s, want ⊤", got3)
	}
}

func TestMergeMismatchedCoefficients(t *testing.T) {
	var n Namer
	v := OfVar(n.FreshVar())
	ctx := NewMergeCtx(&n)
	if got := Merge(v, v.MulK(2), ctx); !got.IsTop() {
		t.Errorf("merge(v,2v) = %s, want ⊤", got)
	}
}

func TestMergeTopAbsorbs(t *testing.T) {
	var n Namer
	ctx := NewMergeCtx(&n)
	if !Merge(Top, Const(1), ctx).IsTop() || !Merge(Const(1), Top, ctx).IsTop() {
		t.Error("top must absorb in merge")
	}
}

func TestMergeDisabled(t *testing.T) {
	var n Namer
	ctx := NewMergeCtx(&n)
	ctx.Disabled = true
	if got := Merge(Const(0), Const(1), ctx); !got.IsTop() {
		t.Errorf("disabled stride inference should merge to ⊤, got %s", got)
	}
	if got := Merge(Const(4), Const(4), ctx); !got.Equal(Const(4)) {
		t.Error("equal values still merge exactly when disabled")
	}
}

func TestMergeSwappedSides(t *testing.T) {
	// The variable may arrive in the second state (backward flow order);
	// Figure 1 swaps so the var side is i1.
	var n Namer
	ctx0 := NewMergeCtx(&n)
	v := Merge(Const(0), Const(1), ctx0)

	ctx := NewMergeCtx(&n)
	got := Merge(v.Add(Const(1)), v, ctx)
	if got.IsTop() {
		t.Fatalf("merge(v+1, v) = ⊤, want a variable expression")
	}
}

// genIntVal builds a random non-top IntVal over a tiny name space.
func genIntVal(r *rand.Rand) IntVal {
	x := Const(int64(r.Intn(9) - 4))
	if r.Intn(2) == 0 {
		x = x.Add(OfVar(VarU(r.Intn(2))).MulK(int64(r.Intn(5) - 2)))
	}
	if r.Intn(2) == 0 {
		x = x.Add(OfConstU(ConstU(r.Intn(2))).MulK(int64(r.Intn(5) - 2)))
	}
	return x
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genIntVal(r), genIntVal(r)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := genIntVal(r), genIntVal(r), genIntVal(r)
		l := a.Add(b).Add(c)
		rr := a.Add(b.Add(c))
		return l.Equal(rr) || (l.IsTop() && rr.IsTop()) ||
			// Adding two distinct variables tops out; associativity holds
			// up to top ordering (l ⊑ r or r ⊑ l is fine for soundness,
			// but in this domain one-sided tops can differ).
			l.IsTop() || rr.IsTop()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubSelfIsZero(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genIntVal(r)
		k, ok := a.Sub(a).AsConst()
		return ok && k == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNegInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genIntVal(r)
		return a.Neg().Neg().Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulKDistributes(t *testing.T) {
	// Distributivity up to ⊤ absorption: (a+b)·k computed on the sum may
	// be ⊤ when the sum already is (e.g. distinct variables with k = 0,
	// where the distributed side folds to 0) — a sound over-
	// approximation. The distributed side can never be coarser.
	f := func(seed int64, k int8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genIntVal(r), genIntVal(r)
		l := a.Add(b).MulK(int64(k))
		rr := a.MulK(int64(k)).Add(b.MulK(int64(k)))
		if rr.IsTop() {
			return l.IsTop()
		}
		if l.IsTop() {
			return true
		}
		return l.Equal(rr)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genIntVal(r)
		var n Namer
		n.nextVar = 100 // avoid clashing with generated names
		ctx := NewMergeCtx(&n)
		return Merge(a, a, ctx).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeSoundInBothStates(t *testing.T) {
	// If merge(i1, i2) returns m (non-top), then substituting μ1 into m
	// must give i1 and μ2 into m must give i2 (soundness of Figure 1: a
	// variable stands for its recorded value in each input state).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c1 := int64(r.Intn(20) - 10)
		c2 := int64(r.Intn(20) - 10)
		i1, i2 := Const(c1), Const(c2)
		var n Namer
		ctx := NewMergeCtx(&n)
		m := Merge(i1, i2, ctx)
		if m.IsTop() {
			return true
		}
		if !m.HasVar() {
			return m.Equal(i1) && m.Equal(i2)
		}
		_, v := m.VarTerm()
		in1 := m.SubstVar(v, ctx.Mu1[v])
		in2 := m.SubstVar(v, ctx.Mu2[v])
		return in1.Equal(i1) && in2.Equal(i2)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	var n Namer
	v := n.FreshVar()
	c := n.FreshConst()
	cases := []struct {
		v    IntVal
		want string
	}{
		{Const(0), "0"},
		{Const(-3), "-3"},
		{Top, "⊤"},
		{OfVar(v), "v0"},
		{OfConstU(c), "c0"},
		{OfVar(v).MulK(-1), "-v0"},
		{OfVar(v).Add(Const(1)), "v0 + 1"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestEqualIsReflectDeepEqualCompatible(t *testing.T) {
	var n Namer
	a := OfVar(n.FreshVar()).Add(OfConstU(n.FreshConst())).Add(Const(2))
	b := OfVar(0).Add(OfConstU(0)).Add(Const(2))
	if !a.Equal(b) || !reflect.DeepEqual(a, b) {
		t.Error("structurally identical values must be Equal and DeepEqual")
	}
}

// TestIntValLayout pins the integer domain's footprint in the abstract
// state: an IntVal is four words (its term list is one pointer) and a Range
// a kind and two IntVals.
func TestIntValLayout(t *testing.T) {
	if n := unsafe.Sizeof(IntVal{}); n != 32 {
		t.Errorf("IntVal is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Range{}); n != 72 {
		t.Errorf("Range is %d bytes, want 72", n)
	}
}

// TestTermListsAreShared: term lists are immutable, so adding a value
// without terms, and scaling by one, reuse the operand's list instead of
// copying it.
func TestTermListsAreShared(t *testing.T) {
	var n Namer
	x := OfConstU(n.FreshConst()).Add(OfConstU(n.FreshConst())).Add(OfVar(n.FreshVar()))
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range []IntVal{x.Add(Const(3)), Const(3).Add(x), x.MulK(1), x.Sub(Const(1))} {
			if v.ts != x.ts {
				t.Fatalf("%v does not share the term list of %v", v, x)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("sharing term lists allocates %.0f times", allocs)
	}
}
