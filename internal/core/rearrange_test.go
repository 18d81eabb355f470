package core

import (
	"fmt"
	"testing"

	"satbelim/internal/bytecode"
)

func optsR() Options { return Options{Mode: ModeFieldArray, Rearrange: true} }

// rearranged lists the pcs of m, a method of p, whose verdict is rearrange.
func rearranged(p *bytecode.Program, m *bytecode.Method) []int {
	var out []int
	for pc, v := range verdictsOf(p, m) {
		if v == bytecode.VerdictRearrange {
			out = append(out, pc)
		}
	}
	return out
}

const swapSrc = `
class T { int v; }
class U {
    static T[] data;
    static void swap(int i, int j) {
        T a = U.data[i];
        T b = U.data[j];
        U.data[i] = b;
        U.data[j] = a;
    }
}
`

func TestSwapIdiomDetected(t *testing.T) {
	p, rep := analyzeSrc(t, swapSrc, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "swap"})
	got := rearranged(p, m)
	if len(got) != 2 {
		t.Fatalf("both swap stores should be flagged, got %v:\n%s", got, dis(p, m))
	}
	total := 0
	for _, mr := range rep.Methods {
		total += mr.Rearranged
	}
	if total != 2 {
		t.Errorf("report Rearranged = %d", total)
	}
}

func TestSwapNotDetectedWithoutOption(t *testing.T) {
	p, _ := analyzeSrc(t, swapSrc, 100, optsA())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "swap"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("option off: got %v", got)
	}
}

func TestMoveDownLoopNotASwap(t *testing.T) {
	// The delete-by-move-down idiom loses the first element's value: it
	// must NOT be treated as a swap (a retrace would not resurrect the
	// deleted value).
	src := `
class T { int v; }
class U {
    static T[] data;
    static void deleteFirst(int n) {
        for (int j = 0; j < n - 1; j = j + 1) {
            U.data[j] = U.data[j + 1];
        }
        U.data[n - 1] = null;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "deleteFirst"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("move-down must not be flagged, got %v:\n%s", got, dis(p, m))
	}
}

func TestSwapWithInterveningStoreNotDetected(t *testing.T) {
	src := `
class T { int v; }
class U {
    static T[] data;
    static void notASwap(int i, int j, int k, T x) {
        T a = U.data[i];
        T b = U.data[j];
        U.data[i] = b;
        U.data[k] = x;    // interferes: may clobber data[j]
        U.data[j] = a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "notASwap"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("interfered pair must not be flagged, got %v", got)
	}
}

func TestSwapWithInterveningCallNotDetected(t *testing.T) {
	src := `
class T { int v; }
class U {
    static T[] data;
    static void touch() { }
    static void notASwap(int i, int j) {
        T a = U.data[i];
        T b = U.data[j];
        U.data[i] = b;
        U.touch();        // call may rearrange anything
        U.data[j] = a;
    }
}
`
	p, _ := analyzeSrc(t, swapHelperInline(src), 0, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "notASwap"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("call-split pair must not be flagged, got %v", got)
	}
}

// swapHelperInline keeps the source unchanged; inline limit 0 in the call
// test preserves the invoke.
func swapHelperInline(s string) string { return s }

func TestCrossArraySwapNotDetected(t *testing.T) {
	// Values exchanged between two different arrays: not a same-array
	// permutation; the target of each store is not pinned to the source
	// of the other value.
	src := `
class T { int v; }
class U {
    static T[] one;
    static T[] two;
    static void crossSwap(int i, int j) {
        T a = U.one[i];
        T b = U.two[j];
        U.one[i] = b;
        U.two[j] = a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "crossSwap"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("cross-array exchange must not be flagged, got %v", got)
	}
}

func TestSwapAfterStaticReassignmentNotDetected(t *testing.T) {
	// The array static is overwritten between the loads and the stores:
	// value numbering must not identify the two reads.
	src := `
class T { int v; }
class U {
    static T[] data;
    static T[] spare;
    static void notASwap(int i, int j) {
        T a = U.data[i];
        T b = U.data[j];
        U.data = U.spare;
        U.data[i] = b;
        U.data[j] = a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "notASwap"})
	if got := rearranged(p, m); len(got) != 0 {
		t.Errorf("reassigned-array pair must not be flagged, got %v", got)
	}
}

func TestSwapThroughLocalArrayVariable(t *testing.T) {
	// The shell-sort shape: the array lives in a local, indices are
	// loop-carried (⊤ at the fixed point) — the freshening machinery
	// must still pair the stores.
	src := `
class T { int v; }
class U {
    static T[] data;
    static void sortish(int n) {
        T[] a = U.data;
        int gap = n / 2;
        int jj = gap;
        while (jj < n) {
            T x = a[jj - gap];
            T y = a[jj];
            if (x.v > y.v) {
                a[jj - gap] = y;
                a[jj] = x;
            }
            jj = jj + 1;
        }
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "sortish"})
	got := rearranged(p, m)
	if len(got) != 2 {
		t.Errorf("loop-carried swap should be flagged, got %v:\n%s", got, dis(p, m))
	}
}

func TestSwapThroughAFieldTemporary(t *testing.T) {
	// The saved element waits in a field of a fresh object, not in a local:
	// its provenance lives in the judge pass's annotation row for σ, which
	// a strong update fills and the read of the same slot returns. Once the
	// temporary's field is written again before the read, or the temporary
	// escapes, the value read back is not the one saved, and the stores do
	// not pair.
	const swap = `
class T { int v; }
class H { T x; }
class U {
    static T[] data;
    static H shared;
    static void swap(int i, int j) {
        H h = new H();
        h.x = U.data[i];
        %s
        U.data[i] = U.data[j];
        U.data[j] = h.x;
    }
}
`
	for _, tc := range []struct {
		between string
		pairs   bool
	}{
		{"", true},
		{"h.x = U.data[j];", false},
		{"U.shared = h;", false},
	} {
		p, _ := analyzeSrc(t, fmt.Sprintf(swap, tc.between), 100, optsR())
		m := p.Method(bytecode.MethodRef{Class: "U", Name: "swap"})
		if got := rearranged(p, m); (len(got) == 2) != tc.pairs {
			t.Errorf("with %q in between: rearranged stores %v, want a pair: %v\n%s", tc.between, got, tc.pairs, dis(p, m))
		}
	}
}

func TestPreNullTakesPrecedenceOverRearrange(t *testing.T) {
	// A site keeps the strongest verdict it earns, whatever the order the
	// judgments arrive in (domain's TestEarnKeepsTheStrongestVerdict): an
	// in-order init loop's store is pre-null even with the swap detector
	// watching the same array.
	src := `
class T { int v; }
class U {
    static T[] build(int n, T seed) {
        T[] a = new T[n];
        for (int i = 0; i < n; i = i + 1) a[i] = seed;
        return a;
    }
}
`
	p, _ := analyzeSrc(t, src, 100, optsR())
	m := p.Method(bytecode.MethodRef{Class: "U", Name: "build"})
	for pc, v := range verdictsOf(p, m) {
		if m.Code[pc].Op == bytecode.OpAAStore && v != bytecode.VerdictPreNull {
			t.Errorf("pc %d: init-loop store is %v, want pre-null", pc, v)
		}
	}
}
