package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"satbelim/internal/bytecode"
)

func TestRefSetBasics(t *testing.T) {
	s := EmptyRefSet
	if !s.IsEmpty() {
		t.Fatal("empty set")
	}
	s = s.With(3).With(70).With(3)
	if s.Count() != 2 {
		t.Errorf("count = %d", s.Count())
	}
	if !s.Has(3) || !s.Has(70) || s.Has(4) {
		t.Error("membership")
	}
	s2 := s.Without(3)
	if s2.Has(3) || !s.Has(3) {
		t.Error("Without must not mutate the receiver")
	}
	if r, ok := SingletonRef(70).Single(); !ok || r != 70 {
		t.Errorf("Single = %d, %v", r, ok)
	}
	if _, ok := s.Single(); ok {
		t.Error("two-element set is not a singleton")
	}
	if _, ok := EmptyRefSet.Single(); ok {
		t.Error("empty set is not a singleton")
	}
}

func TestRefSetOps(t *testing.T) {
	a := EmptyRefSet.With(1).With(2)
	b := EmptyRefSet.With(2).With(65)
	u := a.Union(b)
	if u.Count() != 3 || !u.Has(65) {
		t.Errorf("union = %v", u)
	}
	if !a.Intersects(b) {
		t.Error("a and b share 2")
	}
	if a.Intersects(SingletonRef(9)) {
		t.Error("no intersection expected")
	}
	if !u.Contains(a) || !u.Contains(b) || a.Contains(u) {
		t.Error("containment")
	}
	if !a.Equal(EmptyRefSet.With(2).With(1)) {
		t.Error("order-independent equality")
	}
}

func genRefSet(r *rand.Rand) RefSet {
	s := EmptyRefSet
	for i := 0; i < r.Intn(6); i++ {
		s = s.With(RefID(r.Intn(130)))
	}
	return s
}

func TestQuickRefSetUnionLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := genRefSet(r), genRefSet(r), genRefSet(r)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		return a.Union(b).Contains(a) && a.Union(b).Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRefSetWithWithout(t *testing.T) {
	f := func(seed int64, id8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := genRefSet(r)
		id := RefID(id8 % 130)
		if !s.With(id).Has(id) {
			return false
		}
		if s.With(id).Without(id).Has(id) {
			return false
		}
		// ForEach visits exactly Count members in increasing order.
		prev := RefID(-1)
		n := 0
		s.ForEach(func(x RefID) {
			if x <= prev {
				t.Fatalf("ForEach out of order: %d after %d", x, prev)
			}
			prev = x
			n++
		})
		return n == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refModel is the reference RefSet is checked against.
type refModel map[RefID]bool

// TestRefSetMatchesReference runs every RefSet operation against a map
// model over ids 0–200, drawing the word boundaries 63, 64, 127 and 128
// every round, so the one-word case, the spill words and the crossings
// between them all meet each other. Operations must leave their receivers
// alone, and With, Without and Union on ids below 64 must not allocate.
func TestRefSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	boundary := []RefID{63, 64, 127, 128}
	draw := func() RefID {
		if rng.Intn(3) == 0 {
			return boundary[rng.Intn(len(boundary))]
		}
		return RefID(rng.Intn(201))
	}
	gen := func() (RefSet, refModel) {
		s, m := EmptyRefSet, refModel{}
		for range rng.Intn(8) {
			r := draw()
			if rng.Intn(4) == 0 {
				s, m[r] = s.Without(r), false
			} else {
				s, m[r] = s.With(r), true
			}
		}
		return s, m
	}
	// check compares s with m through every query.
	check := func(what string, s RefSet, m refModel) {
		t.Helper()
		var members []RefID
		for r := RefID(0); r <= 255; r++ {
			if s.Has(r) != m[r] {
				t.Fatalf("%s = %v: Has(%d) = %v, model %v", what, s, r, s.Has(r), m[r])
			}
			if m[r] {
				members = append(members, r)
			}
		}
		var seen []RefID
		s.ForEach(func(r RefID) { seen = append(seen, r) })
		if fmt.Sprint(seen) != fmt.Sprint(members) {
			t.Fatalf("%s: ForEach visits %v, model %v", what, seen, members)
		}
		if s.Count() != len(members) || s.IsEmpty() != (len(members) == 0) {
			t.Fatalf("%s = %v: Count %d IsEmpty %v, model %v", what, s, s.Count(), s.IsEmpty(), members)
		}
		r, one := s.Single()
		if one != (len(members) == 1) || one && r != members[0] {
			t.Fatalf("%s = %v: Single %d %v, model %v", what, s, r, one, members)
		}
		// The same members added in another order make an equal set.
		rebuilt := EmptyRefSet
		for i := len(members) - 1; i >= 0; i-- {
			rebuilt = rebuilt.With(members[i])
		}
		if !s.Equal(rebuilt) || !rebuilt.Equal(s) {
			t.Fatalf("%s = %v is not Equal to %v, built from its members", what, s, rebuilt)
		}
	}
	with := func(m refModel, r RefID, in bool) refModel {
		out := refModel{r: in}
		for k, v := range m {
			if k != r {
				out[k] = v
			}
		}
		return out
	}
	for round := range 2000 {
		a, ma := gen()
		b, mb := gen()
		check("a", a, ma)
		for _, r := range append([]RefID{draw()}, boundary...) {
			check(fmt.Sprintf("round %d: a.With(%d)", round, r), a.With(r), with(ma, r, true))
			check(fmt.Sprintf("round %d: a.Without(%d)", round, r), a.Without(r), with(ma, r, false))
		}
		union := refModel{}
		meets, aHasB := false, true
		for r, in := range mb {
			union[r] = in
			meets = meets || in && ma[r]
			aHasB = aHasB && (!in || ma[r])
		}
		for r, in := range ma {
			union[r] = union[r] || in
		}
		equal := aHasB
		for r, in := range ma {
			equal = equal && (!in || mb[r])
		}
		check(fmt.Sprintf("round %d: a.Union(b)", round), a.Union(b), union)
		check(fmt.Sprintf("round %d: b.Union(a)", round), b.Union(a), union)
		if a.Intersects(b) != meets || b.Intersects(a) != meets {
			t.Fatalf("round %d: %v ∩ %v: Intersects %v, model %v", round, a, b, a.Intersects(b), meets)
		}
		if a.Contains(b) != aHasB || !a.Union(b).Contains(a) || !a.Union(b).Contains(b) {
			t.Fatalf("round %d: %v ⊇ %v: Contains %v, model %v", round, a, b, a.Contains(b), aHasB)
		}
		if a.Equal(b) != equal || b.Equal(a) != equal {
			t.Fatalf("round %d: %v = %v: Equal %v, model %v", round, a, b, a.Equal(b), equal)
		}
		// Nothing above changed a or b.
		check("a afterwards", a, ma)
		check("b afterwards", b, mb)
	}

	small, other := EmptyRefSet.With(5).With(40), EmptyRefSet.With(7)
	allocs := testing.AllocsPerRun(100, func() {
		s := small.With(63).Without(5).Union(other).With(0)
		if s.Count() != 4 || !s.Has(63) {
			t.Fatal(s)
		}
	})
	if allocs != 0 {
		t.Errorf("With, Without and Union on ids below 64 allocate %.0f times", allocs)
	}
	if n := unsafe.Sizeof(RefSet{}); n != 16 {
		t.Errorf("RefSet is %d bytes, want 16: one word and a pointer", n)
	}
}

func TestBuildRefTableNamesEverything(t *testing.T) {
	b := bytecode.NewBuilder("T", "m", false)
	b.DeclareSlot(bytecode.ClassType("T")) // receiver
	b.AddParam(bytecode.Int)
	b.AddParam(bytecode.ArrayOf(bytecode.ClassType("U")))
	b.New("T")
	b.Op(bytecode.OpPop)
	b.Const(3)
	b.NewArray(bytecode.ClassType("U"))
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()

	tab := buildRefTable(nil, m, nil, Options{})
	// Global + 2 ref args (receiver, array; the int param gets none) +
	// 2 sites × 2 refs are judged; the two arguments' contents references
	// come after them.
	if len(tab.infos) != 1+2+4+2 || tab.judged != 1+2+4 {
		t.Fatalf("refs = %d, judged %d", len(tab.infos), tab.judged)
	}
	if tab.argRef[0] == 0 {
		t.Error("receiver ref missing")
	}
	if tab.argRef[1] != 0 || tab.argContent[1] != 0 {
		t.Error("int param must not get a ref")
	}
	if tab.argRef[2] == 0 {
		t.Error("array param ref missing")
	}
	for i, c := range tab.argContent {
		if tab.argRef[i] != 0 && int(c) < tab.judged {
			t.Errorf("Arg%d's contents ref %d is numbered before the judged count %d", i, c, tab.judged)
		}
	}
	// Debug names are formatted from kind and site / argument index.
	var names []string
	for r := range tab.infos {
		names = append(names, tab.info(RefID(r)).String())
	}
	if got, want := strings.Join(names, " "), "Global Arg0 Arg2 R0/A R0/B R3/A R3/B Arg0* Arg2*"; got != want {
		t.Errorf("ref names = %q, want %q", got, want)
	}
	sites := 0
	for pc := range m.Code {
		a, b := tab.site(pc)
		if a == GlobalRefID {
			continue
		}
		sites++
		if b == a {
			t.Error("A and B refs must differ")
		}
		if !tab.unique(a) {
			t.Error("A refs are unique")
		}
		if tab.unique(b) {
			t.Error("B refs are summaries")
		}
	}
	if sites != 2 {
		t.Errorf("%d sites named, want 2", sites)
	}
	// Only arrays carry Len and NR: the array argument and the newarray
	// site's two references.
	var arrs []int32
	for _, info := range tab.infos {
		arrs = append(arrs, info.arr)
	}
	if got, want := fmt.Sprint(arrs), "[-1 -1 0 -1 -1 1 2 -1 -1]"; tab.numArrays != 3 || got != want {
		t.Errorf("%d arrays at %s, want 3 at %s", tab.numArrays, got, want)
	}

	// Single-summary ablation: A == B, nothing unique.
	tab2 := buildRefTable(nil, m, nil, Options{SingleRefPerSite: true})
	for pc := range m.Code {
		a, b := tab2.site(pc)
		if a == GlobalRefID {
			continue
		}
		if b != a {
			t.Error("ablation should collapse A and B")
		}
		if tab2.unique(a) {
			t.Error("ablation removes uniqueness")
		}
	}
}

func TestCtorReceiverUniqueThreadLocal(t *testing.T) {
	b := bytecode.NewBuilder("T", "<init>", false)
	b.SetCtor()
	b.DeclareSlot(bytecode.ClassType("T"))
	b.Return()
	m := b.Build()
	tab := buildRefTable(nil, m, nil, Options{})
	r := tab.argRef[0]
	if !tab.unique(r) {
		t.Error("constructor this must be unique (§2.3)")
	}
	if tab.argContent[0] != 0 {
		t.Error("constructor this starts with null fields: it has no contents ref")
	}
	// Non-ctor receiver is not unique.
	b2 := bytecode.NewBuilder("T", "m", false)
	b2.DeclareSlot(bytecode.ClassType("T"))
	b2.Return()
	tab2 := buildRefTable(nil, b2.Build(), nil, Options{})
	if tab2.unique(tab2.argRef[0]) {
		t.Error("plain method this must not be unique")
	}
	if tab2.argContent[0] == 0 {
		t.Error("plain method this has a contents ref")
	}
}
