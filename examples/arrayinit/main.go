// Arrayinit walks the paper's §3.1 motivating example end to end: the
// expand method's copy loop fills a freshly allocated array in order, and
// the array analysis proves every store initializing by inferring the
// loop invariant  ∀j : i ≤ j < new_ta.length : new_ta[j] = null  through
// stride-matched state merges (Figure 1 of the paper).
package main

import (
	"fmt"
	"log"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

const src = `
class T { int v; T(int v0) { v = v0; } }
class Util {
    // The paper's expand(T[] ta) example, §3.1.
    static T[] expand(T[] ta) {
        T[] new_ta = new T[ta.length * 2];
        for (int i = 0; i < ta.length; i = i + 1)
            new_ta[i] = ta[i];
        return new_ta;
    }
    static void main() {
        T[] ta = new T[4];
        for (int i = 0; i < ta.length; i = i + 1) ta[i] = new T(i * i);
        T[] grown = Util.expand(ta);
        print(grown.length);
        print(grown[3].v);
    }
}
`

func main() {
	for _, mode := range []core.Options{
		{Mode: core.ModeField},
		{Mode: core.ModeFieldArray},
		{Mode: core.ModeFieldArray, NoStrideInference: true},
	} {
		build, err := pipeline.Compile("arrayinit", src, pipeline.Options{InlineLimit: 100, Analysis: mode})
		if err != nil {
			log.Fatal(err)
		}
		label := mode.Mode.String()
		if mode.NoStrideInference {
			label += " (stride inference disabled)"
		}
		fmt.Printf("== analysis mode %s ==\n", label)
		ref := bytecode.MethodRef{Class: "Util", Name: "expand"}
		n := build.Program.Symbols().MethodNum(ref)
		for pc, in := range build.Program.Method(ref).Code {
			if in.Op == bytecode.OpAAStore {
				verdict := "barrier kept"
				if build.Program.Verdicts().At(n, pc) == bytecode.VerdictPreNull {
					verdict = "barrier ELIDED"
				}
				fmt.Printf("  expand pc %d aastore: %s\n", pc, verdict)
			}
		}
		res, err := build.Run(vm.Config{Barrier: satb.ModeConditional})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Counters.Summarize()
		fmt.Printf("  dynamic: %d array barrier execs, %d elided\n\n", s.ArrayExecs, s.ArrayElided)
	}
}
