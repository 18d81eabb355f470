// Quickstart: compile a small MiniJava program, run the SATB barrier-
// elision analyses, and see which stores lose their write barriers — then
// execute the program and confirm the dynamic counts agree.
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
class Node {
    int v;
    Node next;
    Node(int v0) { v = v0; }
}
class List {
    static Node shared;
    static void main() {
        Node head = null;
        for (int i = 0; i < 10; i = i + 1) {
            Node n = new Node(i);
            n.next = head;    // pre-null while n is thread-local: elided
            head = n;
        }
        List.shared = head;   // the list escapes here
        head.next = null;     // after escape: barrier kept
        int s = 0;
        Node c = List.shared;
        while (c != null) { s = s + c.v; c = c.next; }
        print(s);
    }
}
`

func main() {
	build, err := pipeline.Compile("quickstart", src, pipeline.Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== annotated bytecode for List.main ==")
	n := build.Program.Symbols().MethodNum(bytecode.MethodRef{Class: "List", Name: "main"})
	fmt.Print(bytecode.Disassemble(build.Program.Methods()[n], build.Program.Verdicts().Of(n)))

	fmt.Println("\n== static analysis report ==")
	fmt.Print(build.Report.String())

	res, err := build.Run(vm.Config{Barrier: satb.ModeConditional})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== dynamic run ==")
	fmt.Printf("program output: %v\n", res.Output)
	fmt.Println(res.Counters.Summarize().String())
	fmt.Printf("execution engine: %s\n", res.Engine)

	// A second compile of the same source is served from the build cache.
	again, err := pipeline.Compile("quickstart", src, pipeline.Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray},
	})
	if err != nil {
		log.Fatal(err)
	}
	cs := pipeline.DefaultCache.Stats()
	fmt.Printf("recompile cache hit: %v (%d hits / %d misses)\n",
		again.CacheHit, cs.Hits, cs.Misses)
}
