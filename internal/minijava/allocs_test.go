package minijava

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// allocsProgram is a main of n statements that between them use every
// statement form and most expression forms, over helper classes.
func allocsProgram(n int) string {
	var b strings.Builder
	b.WriteString("class N { int f; N next; N[] kids; int[] g; N(int v) { f = v; } int h(int a, int c) { return a * c; } }\n")
	b.WriteString("class A {\n  static void main() {\n    int x = 1; int y = 2; boolean on = true; N a = new N(3);\n    a.g = new int[4];\n")
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "    x = x + a.f * (%d %% 7) - -y;\n", i)
		case 1:
			fmt.Fprintf(&b, "    if (x < %d && !on) { a.g[%d %% 4] = a.h(x, 2); } else { a.next = new N(x); }\n", i, i)
		case 2:
			fmt.Fprintf(&b, "    int z%d = a.g.length + a.f;\n", i)
		case 3:
			b.WriteString("    while (y > 0) { y = y - 1; }\n")
		case 4:
			b.WriteString("    for (int k = 0; k < 2; k = k + 1) { print(k); }\n")
		}
	}
	b.WriteString("    print(x);\n  }\n}\n")
	return b.String()
}

// TestParseAllocs gates the parser's allocation shape: a parse takes its
// tokens, nodes, lists and scratch stacks from the arena the last parse
// released, so a warm Parse followed by Release allocates a few objects of
// its own and nothing per node, per list or per token: a program with four
// times the statements takes no more. Before the arena, a parse took one
// slab per node type sized by a counting pass over the tokens, and before
// the slabs one allocation per node and list. Like
// pipeline.TestCompileAllocs, the count must repeat exactly.
func TestParseAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, and its sync.Pool drops a quarter of what it is given")
	}
	// Four times 50 statements is under arenaMaxTokens: a larger parse
	// leaves its arena to the Go collector.
	const n = 50
	small, large := allocsProgram(n), allocsProgram(4*n)
	measure := func(src string) float64 {
		parse := func() float64 {
			// The Go collector's first cycle allocates its workers.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				prog, err := Parse("t.mj", src)
				if err != nil {
					t.Fatal(err)
				}
				prog.Release()
			})
		}
		first, second := parse(), parse()
		if first != second {
			t.Errorf("allocation count does not repeat: %.0f then %.0f", first, second)
		}
		return first
	}
	a, b := measure(small), measure(large)
	t.Logf("%d statements: %.0f allocs per Parse and Release; %d statements: %.0f", n, a, 4*n, b)
	if b > a {
		t.Errorf("Parse allocations grow with the program: %.0f for %d statements, %.0f for %d", a, n, b, 4*n)
	}
	if a > 2 {
		t.Errorf("%.0f allocs per Parse and Release of %d statements, want at most 2 (the Program, and the Parser should it escape)", a, n)
	}
}

// TestReleasedParseArenaIsBounded: Release empties every slab and list of
// the arena and zeroes their storage, a second Release does nothing, and
// the arena goes to the next Parse only when its token buffer holds at
// most arenaMaxTokens tokens. A program of half that many keeps at most
// arenaKeepMax bytes; a program of a megabyte leaves its arena to the Go
// collector, and no later Parse finds it.
func TestReleasedParseArenaIsBounded(t *testing.T) {
	const arenaKeepMax = 1 << 20
	parse := func(src string) *Program {
		t.Helper()
		prog, err := Parse("t.mj", src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// The largest program of at most half the bound's tokens, to within 20
	// statements: its token buffer, which grows by at most doubling when
	// the lexer's estimate falls short, is under the bound whatever buffer
	// it starts from.
	n := 20
	for {
		toks, err := LexAll("t.mj", allocsProgram(n+20))
		if err != nil {
			t.Fatal(err)
		}
		if 2*len(toks) > arenaMaxTokens {
			break
		}
		n += 20
	}
	small, atBound := allocsProgram(10), allocsProgram(n)
	reused := false
	for i := 0; i < 10 && !reused; i++ {
		prog := parse(atBound)
		a := prog.a
		prog.Release()
		if prog.Classes != nil || prog.a != nil {
			t.Fatal("a released Program still holds its tree")
		}
		prog.Release() // does nothing: the arena is pooled once
		kept, dirty := arenaState(a)
		if dirty != "" {
			t.Fatalf("after Release, %s is not empty and zero", dirty)
		}
		if kept > arenaKeepMax {
			t.Fatalf("an arena of %d tokens (%d statements) keeps %d bytes, want at most %d", cap(a.toks), n, kept, arenaKeepMax)
		}
		if i == 0 {
			t.Logf("an arena of %d tokens (%d statements) keeps %d bytes", cap(a.toks), n, kept)
		}
		next, other := parse(small), parse(small)
		if next.a == other.a {
			t.Fatal("two live parses share one arena")
		}
		reused = next.a == a || other.a == a
		next.Release()
		other.Release()
	}
	if !reused {
		t.Errorf("no Parse took the arena of a program of %d statements, under the bound", n)
	}
	var big strings.Builder
	for big.Len() < 1<<20 {
		big.WriteString(allocsProgram(1000))
	}
	prog := parse(big.String())
	a := prog.a
	prog.Release()
	for i := 0; i < 10; i++ {
		next := parse(small)
		if next.a == a {
			t.Fatalf("a Parse took the arena of a megabyte-long program (%d tokens)", cap(a.toks))
		}
		next.Release()
	}
}

// arenaState walks an arena: kept is the bytes of every slice in it, by
// capacity, and dirty names the first slab or list (the tokens aside) that
// holds a value or a nonzero word.
func arenaState(a *arena) (kept int, dirty string) {
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			kept += v.Cap() * int(v.Type().Elem().Size())
			if name == ".toks" || dirty != "" {
				return
			}
			if v.Len() > 0 {
				dirty = name
			}
			for i, all := 0, v.Slice(0, v.Cap()); i < all.Len(); i++ {
				if !all.Index(i).IsZero() {
					dirty = name
				}
			}
		}
	}
	walk("", reflect.ValueOf(a).Elem())
	return kept, dirty
}
