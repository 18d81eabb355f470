// Inlinesweep reproduces Figure 2's story on one workload: as the inline
// limit grows, constructors and helpers are expanded into their callers,
// the intra-procedural analyses see more pre-null stores, and the
// elimination rate climbs — while analysis time grows with the larger
// method bodies.
package main

import (
	"fmt"
	"log"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/num"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

func main() {
	w, err := workloads.Get("jess")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %s\n\n", w.Name, w.Description)
	fmt.Printf("%6s %6s %8s %12s %12s\n", "limit", "mode", "% elim", "analysis", "bytecode")
	for _, limit := range []int{0, 25, 50, 100, 200} {
		for _, mode := range []core.Mode{core.ModeNone, core.ModeField, core.ModeFieldArray} {
			b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: limit,
				Analysis:    core.Options{Mode: mode},
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := b.Run(vm.Config{Barrier: satb.ModeConditional})
			if err != nil {
				log.Fatal(err)
			}
			s := res.Counters.Summarize()
			fmt.Printf("%6d %6s %8.1f %12v %12d\n", limit, mode, num.Pct(s.ElidedExecs, s.TotalExecs),
				b.StageTime[pipeline.StageAnalyze].Round(time.Microsecond), b.BytecodeBytes)
		}
	}
}
