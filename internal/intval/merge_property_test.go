package intval

// Property tests for Merge (the paper's Figure 1 merge_intvals) and
// MergeRanges over random IntVal/Range pairs: commutativity where it
// holds, a pinned counterexample where it deliberately does not,
// substitution soundness through the μ maps, and the over-approximation
// guarantee that a merged null range only contains indices both inputs
// guarantee null.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genVarFree builds a random IntVal with no variable term: a constant
// plus up to two constant-unknown terms. Variable-free inputs are the
// common case in practice (loop bounds, lengths, literal indices) and
// the fragment on which Merge is symmetric.
func genVarFree(r *rand.Rand) IntVal {
	x := Const(int64(r.Intn(9) - 4))
	if r.Intn(2) == 0 {
		x = x.Add(OfConstU(ConstU(r.Intn(2))).MulK(int64(r.Intn(5) - 2)))
	}
	return x
}

// substAll replaces x's variable term (if any) by its binding in mu,
// leaving unbound variables alone. IntVals carry at most one variable
// term, so a single substitution step concretizes fully.
func substAll(x IntVal, mu map[VarU]IntVal) IntVal {
	if x.IsTop() || !x.HasVar() {
		return x
	}
	_, v := x.VarTerm()
	s, ok := mu[v]
	if !ok {
		return x
	}
	return x.SubstVar(v, s)
}

// TestQuickMergeCommutativeVarFree: on variable-free inputs Merge is
// commutative up to the (deterministic) fresh-variable naming — running
// the same merge sequence with the sides swapped in a fresh context
// yields structurally identical results, because a stride d one way is
// stride -d the other and both mint the same fresh name.
func TestQuickMergeCommutativeVarFree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const merges = 3
		as := make([]IntVal, merges)
		bs := make([]IntVal, merges)
		for i := range as {
			as[i], bs[i] = genVarFree(r), genVarFree(r)
		}
		var n1, n2 Namer
		fwd := NewMergeCtx(&n1)
		rev := NewMergeCtx(&n2)
		for i := range as {
			mf := Merge(as[i], bs[i], fwd)
			mr := Merge(bs[i], as[i], rev)
			if !mf.Equal(mr) {
				t.Logf("merge %d: %s vs %s → forward %s, reverse %s", i, as[i], bs[i], mf, mr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeNotCommutativeWithVariables pins the known, documented
// asymmetry: when an input carries a variable term, Merge keeps the
// first state's expression and binds the second state's meaning in μ2,
// so swapping the sides swaps which expression survives. Both answers
// must still be sound through their own μ maps — commutativity fails
// only syntactically, never semantically.
func TestMergeNotCommutativeWithVariables(t *testing.T) {
	var n Namer
	v := OfVar(n.FreshVar())

	fwd := NewMergeCtx(&n)
	mf := Merge(v, v.Add(Const(1)), fwd)
	rev := NewMergeCtx(&n)
	mr := Merge(v.Add(Const(1)), v, rev)

	if mf.IsTop() || mr.IsTop() {
		t.Fatalf("merge(v, v+1) = %s, merge(v+1, v) = %s: want non-top", mf, mr)
	}
	if mf.Equal(mr) {
		t.Fatalf("expected the documented asymmetry, got %s both ways", mf)
	}
	for _, c := range []struct {
		name   string
		m      IntVal
		ctx    *MergeCtx
		i1, i2 IntVal
	}{
		{"forward", mf, fwd, v, v.Add(Const(1))},
		{"reverse", mr, rev, v.Add(Const(1)), v},
	} {
		if got := substAll(c.m, c.ctx.Mu1); !got.Equal(c.i1) {
			t.Errorf("%s: result %s through μ1 = %s, want %s", c.name, c.m, got, c.i1)
		}
		if got := substAll(c.m, c.ctx.Mu2); !got.Equal(c.i2) {
			t.Errorf("%s: result %s through μ2 = %s, want %s", c.name, c.m, got, c.i2)
		}
	}
}

// TestQuickMergeSubstitutionSound: for any sequence of merges sharing
// one context, every non-top result denotes its first input when read
// through μ1 and its second input when read through μ2. First inputs may
// carry pre-existing variable terms (the in-progress-loop shape);
// second inputs are variable-free, matching how the analysis merges an
// iterating state with a fresh one.
func TestQuickMergeSubstitutionSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var n Namer
		// Pre-existing variables v0/v1 come from earlier merge contexts;
		// start fresh names beyond them.
		n.nextVar = 10
		ctx := NewMergeCtx(&n)
		for k := 0; k < 3; k++ {
			i1 := genVarFree(r)
			if r.Intn(2) == 0 {
				i1 = i1.Add(OfVar(VarU(r.Intn(2))).MulK(int64(r.Intn(3) - 1)))
			}
			i2 := genVarFree(r)
			m := Merge(i1, i2, ctx)
			if m.IsTop() {
				continue
			}
			if got := substAll(m, ctx.Mu1); !got.Equal(i1) {
				t.Logf("merge %d: merge(%s, %s) = %s; through μ1 = %s, want %s", k, i1, i2, m, got, i1)
				return false
			}
			if got := substAll(m, ctx.Mu2); !got.Equal(i2) {
				t.Logf("merge %d: merge(%s, %s) = %s; through μ2 = %s, want %s", k, i1, i2, m, got, i2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// arrayLen is the concrete array length the range tests model: ranges
// denote subsets of the valid indices [0..arrayLen-1].
const arrayLen = 9

// genConstRange builds a random Range with literal bounds that respects
// the domain's creation invariants for an array of length arrayLen:
// Full ranges exist only as the whole allocation [0..len-1] (range.go),
// while Low/High arise from contracting it at either end.
func genConstRange(r *rand.Rand) Range {
	switch r.Intn(4) {
	case 0:
		return Empty()
	case 1:
		return Full(Const(0), Const(arrayLen-1))
	case 2:
		return Low(Const(int64(r.Intn(arrayLen + 1))))
	default:
		return High(Const(int64(r.Intn(arrayLen))))
	}
}

// member reports whether index k lies in a range whose bounds are
// literal constants; known is false when a bound is still symbolic.
func member(r Range, k int64) (contains, known bool) {
	switch r.Kind {
	case RangeEmpty:
		return false, true
	case RangeFull:
		lo, ok1 := r.Lo.AsConst()
		hi, ok2 := r.Hi.AsConst()
		return ok1 && ok2 && k >= lo && k <= hi, ok1 && ok2
	case RangeLow:
		lo, ok := r.Lo.AsConst()
		return ok && k >= lo, ok
	default:
		hi, ok := r.Hi.AsConst()
		return ok && k <= hi, ok
	}
}

// concretize reads a merged range in one input state by substituting
// that state's μ bindings into the bounds.
func concretize(r Range, mu map[VarU]IntVal) Range {
	r.Lo = substAll(r.Lo, mu)
	r.Hi = substAll(r.Hi, mu)
	return r
}

// TestQuickMergeRangesOverApproximates: the merged null range, read in
// either input state through that state's μ map, must be a subset of
// that input's null range over the array's valid indices — an index is
// known null after the merge only if both states guaranteed it. This is
// the soundness direction: a too-large merged range would elide
// barriers for stores that may overwrite a non-null (reachable)
// pointer. (Validity matters: Full [0..len-1] merged with Low yields
// Low, whose half-open tail only coincides with Full inside the array.)
func TestQuickMergeRangesOverApproximates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		r1, r2 := genConstRange(r), genConstRange(r)
		var n Namer
		ctx := NewMergeCtx(&n)
		merged := MergeRanges(r1, r2, ctx)
		for _, side := range []struct {
			mu map[VarU]IntVal
			in Range
		}{{ctx.Mu1, r1}, {ctx.Mu2, r2}} {
			conc := concretize(merged, side.mu)
			for k := int64(0); k < arrayLen; k++ {
				inMerged, known := member(conc, k)
				if !known {
					t.Logf("merged %s not concretizable from constant inputs %s, %s", merged, r1, r2)
					return false
				}
				if !inMerged {
					continue
				}
				if inInput, _ := member(side.in, k); !inInput {
					t.Logf("merge(%s, %s) = %s: index %d in merged range but not in input %s",
						r1, r2, merged, k, side.in)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeRangesIdempotentAndCommutative: merging a range with
// itself in a fresh context is the identity, and constant-bound ranges
// merge the same in either order (same fresh-naming argument as the
// IntVal case).
func TestQuickMergeRangesIdempotentAndCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		r1, r2 := genConstRange(r), genConstRange(r)
		var n1, n2, n3 Namer
		if got := MergeRanges(r1, r1, NewMergeCtx(&n1)); !got.Equal(r1) {
			t.Logf("merge(%s, %s) = %s, want identity", r1, r1, got)
			return false
		}
		fwd := MergeRanges(r1, r2, NewMergeCtx(&n2))
		rev := MergeRanges(r2, r1, NewMergeCtx(&n3))
		if !fwd.Equal(rev) {
			t.Logf("merge(%s, %s): forward %s, reverse %s", r1, r2, fwd, rev)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeCtxReuse: a context Reset between state merges behaves as a
// fresh one. Each state merge — a few IntVal and range merges sharing one
// context — runs once through a context reset before it and once through a
// NewMergeCtx of its own; results, the μ1/μ2 bindings and the stride table
// must agree, though the merges before it invented strides and bound
// variables that a Reset forgetting one map would leak into the next.
func TestMergeCtxReuse(t *testing.T) {
	sameMap := func(a, b map[VarU]IntVal) bool {
		if len(a) != len(b) {
			return false
		}
		for v, x := range a {
			if y, ok := b[v]; !ok || !x.Equal(y) {
				return false
			}
		}
		return true
	}
	invented := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var nReused, nFresh Namer
		nReused.nextVar, nFresh.nextVar = 10, 10
		reused := NewMergeCtx(&nReused)
		for merge := 0; merge < 4; merge++ {
			disabled := r.Intn(6) == 0
			reused.Reset(&nReused, disabled)
			fresh := NewMergeCtx(&nFresh)
			fresh.Disabled = disabled
			for k := 0; k < 4; k++ {
				if r.Intn(3) == 0 {
					r1, r2 := genConstRange(r), genConstRange(r)
					if a, b := MergeRanges(r1, r2, reused), MergeRanges(r1, r2, fresh); !a.Equal(b) {
						t.Logf("merge %d: ranges %s, %s: reused %s, fresh %s", merge, r1, r2, a, b)
						return false
					}
					continue
				}
				i1, i2 := genVarFree(r), genVarFree(r)
				if r.Intn(2) == 0 {
					i1 = i1.Add(OfVar(VarU(r.Intn(2))).MulK(int64(r.Intn(3) - 1)))
				}
				if a, b := Merge(i1, i2, reused), Merge(i1, i2, fresh); !a.Equal(b) {
					t.Logf("merge %d: %s, %s: reused %s, fresh %s", merge, i1, i2, a, b)
					return false
				}
			}
			if !sameMap(reused.Mu1, fresh.Mu1) || !sameMap(reused.Mu2, fresh.Mu2) {
				t.Logf("merge %d: bindings μ1 %v μ2 %v, fresh μ1 %v μ2 %v", merge, reused.Mu1, reused.Mu2, fresh.Mu1, fresh.Mu2)
				return false
			}
			if len(reused.U) != len(fresh.U) {
				t.Logf("merge %d: strides %v, fresh %v", merge, reused.U, fresh.U)
				return false
			}
			for d, v := range fresh.U {
				if reused.U[d] != v {
					t.Logf("merge %d: strides %v, fresh %v", merge, reused.U, fresh.U)
					return false
				}
			}
			invented += len(fresh.U)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if invented == 0 {
		t.Error("no merge invented a stride: the reuse was never tested against a dirty context")
	}
}
