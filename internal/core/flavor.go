package core

import (
	"satbelim/internal/bytecode"
	"satbelim/internal/satb"
)

// FlavorVerdicts is the per-flavor static picture of one compiled
// program: of the elision verdicts the analysis attached to reference
// stores, how many the barrier flavor's soundness predicate keeps and
// how many it must discard (projected back to a full barrier). The
// analysis itself is flavor-independent — it proves facts about stores
// (pre-null, null-or-same, rearrangement) — and each flavor consumes
// only the subset of those facts that justifies removing *its* barrier.
type FlavorVerdicts struct {
	Flavor string `json:"flavor"`
	// Verdicts counts store sites carrying any elision verdict.
	Verdicts int `json:"verdicts"`
	// Kept counts verdicts sound under the flavor (the barrier is
	// actually removed at those sites).
	Kept int `json:"kept"`
	// Discarded counts verdicts the flavor cannot use; those sites keep
	// their full barrier.
	Discarded int `json:"discarded"`
}

// FlavorSiteVerdicts filters a compiled program's static elision
// verdicts through one flavor's soundness predicate.
func FlavorSiteVerdicts(p *bytecode.Program, spec *satb.BarrierSpec) FlavorVerdicts {
	fv := FlavorVerdicts{Flavor: spec.Name}
	syms, vt := p.Symbols(), p.Verdicts()
	for n, m := range syms.Methods {
		body := p.Body(n)
		if body.Err != nil {
			continue // a body with a fault resolves no site
		}
		for pc, k := range vt.Of(n) {
			if k == satb.ElideNone {
				continue
			}
			if _, ok := satb.SiteOf(syms, m.Code[pc].Op, body.FieldAt[pc]); !ok {
				continue
			}
			fv.Verdicts++
			if spec.Sound(k) {
				fv.Kept++
			} else {
				fv.Discarded++
			}
		}
	}
	return fv
}
