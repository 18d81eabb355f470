package vm

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"satbelim/internal/bytecode"
)

// faultPrelude is shared by every TestFaultParity program: a node class,
// and helpers whose only purpose is to make an operand the result of a
// call — after a call returns nothing is deferred, so the consumer of its
// result takes its operands off the real operand stack.
const faultPrelude = `
class N {
    int v;
    N next;
    int get(int d) { return v + d; }
    void run() { }
}
class H {
    static int id(int x) { return x; }
    static boolean lt(int x, int y) { return x < y; }
    static N pick(N n, int i) { if (i == 250) return null; return n; }
    static int[] ints(int[] a, int i) { if (i == 250) return null; return a; }
    static int add3(int x, int y, int z) { return x + y + z; }
}
`

// faultCases each raise one runtime fault at iteration 250 of a loop that
// has long since tiered up. The first group has the faulting access's
// operands deferred (composed into the access); the second has them
// produced by calls, i.e. on the real operand stack.
var faultCases = []struct{ name, body string }{
	{"iaload-bounds", `int[] a = new int[250]; for (int i = 0; i < 300; i = i + 1) s = s + a[i];`},
	{"aaload-bounds", `N[] a = new N[250]; N x = null; for (int i = 0; i < 300; i = i + 1) x = a[i];`},
	{"iastore-bounds", `int[] a = new int[250]; for (int i = 0; i < 300; i = i + 1) a[i] = i;`},
	{"aastore-bounds", `N[] a = new N[250]; N n = new N(); for (int i = 0; i < 300; i = i + 1) a[i] = n;`},
	{"getfield-null", `N n = new N(); for (int i = 0; i < 300; i = i + 1) { if (i == 250) n = null; s = s + n.v; }`},
	{"putfield-int-null", `N n = new N(); for (int i = 0; i < 300; i = i + 1) { if (i == 250) n = null; n.v = i; }`},
	{"putfield-ref-null", `N n = new N(); N m = new N(); for (int i = 0; i < 300; i = i + 1) { if (i == 250) n = null; n.next = m; }`},
	{"arraylength-null", `int[] a = new int[4]; for (int i = 0; i < 300; i = i + 1) { if (i == 250) a = null; s = s + a.length; }`},
	{"div-zero-composed", `for (int i = 0; i < 300; i = i + 1) s = s + (1000 / (250 - i)) * 2;`},
	{"rem-zero-composed", `for (int i = 0; i < 300; i = i + 1) s = s + 1000 % (250 - i) + 1;`},
	{"invoke-null-receiver", `N n = new N(); for (int i = 0; i < 300; i = i + 1) { if (i == 250) n = null; s = s + n.get(i + 1); }`},
	{"spawn-null-receiver", `N n = new N(); for (int i = 0; i < 300; i = i + 1) { if (i == 250) n = null; spawn n.run(); }`},
	{"negative-array-size", `for (int i = 0; i < 300; i = i + 1) { int[] b = new int[249 - i]; s = s + b.length; }`},
	{"huge-array-size", `for (int i = 0; i < 300; i = i + 1) { int[] b = new int[i / 250 * 400000000 + 1]; s = s + b.length; }`},
	{"nested-call-argument", `int[] a = new int[250]; for (int i = 0; i < 300; i = i + 1) s = s + H.add3(H.id(i), a[i], i);`},
	{"fault-under-getfield", `N[] a = new N[250]; N n = new N(); for (int i = 0; i < 250; i = i + 1) a[i] = n; for (int i = 0; i < 300; i = i + 1) s = s + a[i].v;`},

	{"stack-iaload-bounds", `int[] a = new int[250]; for (int i = 0; i < 300; i = i + 1) s = s + a[H.id(i)];`},
	{"stack-iaload-null", `int[] a = new int[300]; for (int i = 0; i < 300; i = i + 1) s = s + H.ints(a, i)[H.id(i)];`},
	{"stack-iastore-bounds", `int[] a = new int[250]; for (int i = 0; i < 300; i = i + 1) a[H.id(i)] = H.id(i);`},
	{"stack-aastore-bounds", `N[] a = new N[250]; N n = new N(); for (int i = 0; i < 300; i = i + 1) a[H.id(i)] = H.pick(n, 0);`},
	{"stack-getfield-null", `N n = new N(); for (int i = 0; i < 300; i = i + 1) s = s + H.pick(n, i).v;`},
	{"stack-putfield-int-null", `N n = new N(); for (int i = 0; i < 300; i = i + 1) H.pick(n, i).v = H.id(i);`},
	{"stack-putfield-ref-null", `N n = new N(); for (int i = 0; i < 300; i = i + 1) H.pick(n, i).next = H.pick(n, 0);`},
	{"stack-arraylength-null", `int[] a = new int[4]; for (int i = 0; i < 300; i = i + 1) s = s + H.ints(a, i).length;`},
	{"stack-div-zero", `for (int i = 0; i < 300; i = i + 1) s = s + H.id(1000) / H.id(250 - i);`},
	{"stack-refcmp-then-bounds", `int[] a = new int[4]; N n = new N(); for (int i = 0; i < 300; i = i + 1) { if (H.pick(n, i) != H.pick(n, 0)) s = s + a[i]; }`},
	{"stack-branch-then-bounds", `int[] a = new int[4]; for (int i = 0; i < 300; i = i + 1) { if (H.lt(i, 250)) s = s + 1; else s = s + a[i]; }`},
	{"stack-invoke-null-receiver", `N n = new N(); for (int i = 0; i < 300; i = i + 1) s = s + H.pick(n, i).get(H.id(i));`},
	{"stack-negative-array-size", `for (int i = 0; i < 300; i = i + 1) { int[] b = new int[H.id(249 - i)]; s = s + b.length; }`},
	{"stack-huge-array-size", `for (int i = 0; i < 300; i = i + 1) { N[] b = new N[H.id(i / 250 * 1152921504606846976 + 1)]; s = s + b.length; }`},
}

// TestFaultParity pins the fault contract of the decoded engines against
// the reference interpreter where TestRuntimeErrors cannot reach: inside
// compiled closures. Every program faults deep into a tiered-up loop; the
// three engines, under the default quantum, one that splits every segment
// and one that splits none, must raise the identical RuntimeError (method,
// pc, line, message) having charged the identical number of steps.
func TestFaultParity(t *testing.T) {
	for _, c := range faultCases {
		t.Run(c.name, func(t *testing.T) {
			src := faultPrelude + `class A { static int loop() { int s = 0; ` + c.body +
				` return s; } static void main() { print(A.loop()); } }`
			p := compileSrc(t, src, 0)
			var wantErr string
			for _, q := range []int{0, 7, 8192} {
				// Steps are compared per quantum: a program that spawns
				// interleaves its threads differently under each.
				wantSteps := int64(-1)
				for _, eng := range []Engine{EngineSwitch, EngineFused, EngineCompiled} {
					v := New(p, Config{Engine: eng, Quantum: q, TierThreshold: 2})
					_, err := v.Run()
					var re *RuntimeError
					if !errors.As(err, &re) {
						t.Fatalf("%v q=%d: err = %v, want *RuntimeError", eng, q, err)
					}
					if eng == EngineCompiled && v.tierUps == 0 {
						t.Errorf("q=%d: compiled run never tiered up", q)
					}
					if wantErr == "" {
						wantErr = re.Error()
					}
					if wantSteps < 0 {
						wantSteps = v.steps
					}
					if re.Error() != wantErr || v.steps != wantSteps {
						t.Errorf("%v q=%d:\n got %q after %d steps\nwant %q after %d steps",
							eng, q, re.Error(), v.steps, wantErr, wantSteps)
					}
				}
			}
		})
	}
}

// TestDiscardedFieldReadFaultParity: a field read whose value is popped
// unused is still a null check. The compiled tier defers `load n; getfield
// f` and, at the pop, evaluates the deferred read for its effects alone
// (discardOp) — which MiniJava's expression statements never produce, so
// the loop is built by hand. It runs 300 times, tiered up long before
// iteration 250 sets n to null; every engine must print the same output
// and raise the same RuntimeError at the getfield after the same number
// of steps.
func TestDiscardedFieldReadFaultParity(t *testing.T) {
	f := bytecode.FieldRef{Class: "N", Name: "f"}
	b := bytecode.NewBuilder("T", "loop", true)
	n := b.DeclareSlot(bytecode.ClassType("N"))
	i := b.DeclareSlot(bytecode.Int)
	b.New("N")
	b.Store(n)
	b.Const(0)
	b.Store(i)
	head, live := b.NewLabel(), b.NewLabel()
	b.Bind(head)
	b.Load(n)
	getfield := b.GetField(f)
	b.Op(bytecode.OpPop)
	b.Load(i)
	b.Op(bytecode.OpPrint)
	b.Load(i)
	b.Const(1)
	b.Op(bytecode.OpAdd)
	b.Store(i)
	b.Load(i)
	b.Const(250)
	b.Op(bytecode.OpCmpNE)
	b.IfTrue(live)
	b.Null()
	b.Store(n)
	b.Bind(live)
	b.Load(i)
	b.Const(300)
	b.Op(bytecode.OpCmpLT)
	b.IfTrue(head)
	b.Return()
	loop := b.Build()
	mb := bytecode.NewBuilder("T", "main", true)
	mb.Invoke(loop.Ref())
	mb.Return()
	main := mb.Build()
	p := bytecode.NewProgram()
	p.AddClass(&bytecode.Class{Name: "N", Fields: []*bytecode.Field{{Name: "f", Type: bytecode.ClassType("N")}}})
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{main, loop}})
	p.Main = main.Ref()

	want := "runtime error at T.loop pc " + strconv.Itoa(getfield) + " (line 0): null pointer dereference reading N.f"
	var wantOut []int64
	wantSteps := int64(-1)
	for _, eng := range []Engine{EngineSwitch, EngineFused, EngineCompiled} {
		v := New(p, Config{Engine: eng, TierThreshold: 2})
		_, err := v.Run()
		var re *RuntimeError
		if !errors.As(err, &re) || re.PC != getfield || re.Error() != want {
			t.Fatalf("%v: err = %v, want %q", eng, err, want)
		}
		if eng == EngineCompiled && v.tierUps == 0 {
			t.Error("compiled run never tiered up")
		}
		if wantSteps < 0 {
			wantOut, wantSteps = v.output, v.steps
			if len(wantOut) != 250 {
				t.Fatalf("%v: printed %d values before the fault, want 250", eng, len(wantOut))
			}
		}
		if !slices.Equal(v.output, wantOut) || v.steps != wantSteps {
			t.Errorf("%v: %d values after %d steps, want %d after %d", eng, len(v.output), v.steps, len(wantOut), wantSteps)
		}
	}
}
