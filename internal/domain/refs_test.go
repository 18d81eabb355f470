package domain

import (
	"fmt"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
)

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

	tab := NewRefTable(nil, m, nil, Config{})
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
	// Kinds in numbering order, sites and arguments as named.
	var kinds []string
	for _, info := range tab.infos {
		kinds = append(kinds, fmt.Sprintf("%d:%d/%d", info.kind, info.site, info.arg))
	}
	if got, want := strings.Join(kinds, " "), "0:0/0 1:0/0 1:0/2 2:0/0 3:0/0 2:3/0 3:3/0 6:0/0 6:0/2"; got != want {
		t.Errorf("refs (kind:site/arg) = %q, want %q", got, want)
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
	tab2 := NewRefTable(nil, m, nil, Config{SingleRefPerSite: true})
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
	tab := NewRefTable(nil, m, nil, Config{})
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
	tab2 := NewRefTable(nil, b2.Build(), nil, Config{})
	if tab2.unique(tab2.argRef[0]) {
		t.Error("plain method this must not be unique")
	}
	if tab2.argContent[0] == 0 {
		t.Error("plain method this has a contents ref")
	}
}
