package bytecode

import "sync/atomic"

// Verdict is what the analysis proved about one reference-store site,
// ordered by strength: a site that earns several verdicts keeps the
// greatest, so "strongest wins" is a comparison.
type Verdict uint8

const (
	// VerdictNone: nothing proven; the barrier is kept.
	VerdictNone Verdict = iota
	// VerdictRearrange: half of an array-element swap; the logging barrier
	// is replaced by the optimistic trace-state check (§4.3).
	VerdictRearrange
	// VerdictNullOrSame: proven to overwrite null or rewrite the value
	// already present (§4.3).
	VerdictNullOrSame
	// VerdictPreNull: proven to overwrite null (§2/§3).
	VerdictPreNull
)

var verdictNames = [...]string{"none", "rearrange", "null-or-same", "pre-null"}

func (v Verdict) String() string { return verdictNames[v] }

// Verdicts is what one analysis proved about a program's reference-store
// sites: a row per method number, nil when nothing was proven in it, else a
// Verdict per pc. A table is immutable: a re-analysis installs a new one
// (SetVerdicts), and whoever holds the old one keeps reading it. It has one
// slot for an executor's decoded form of the program (internal/vm's
// images), so that what was decoded belongs to the verdicts it used.
type Verdicts struct {
	rows    [][]Verdict
	decoded atomic.Value
}

// Of returns the row of method number n, which must not be modified.
func (t *Verdicts) Of(n int) []Verdict {
	if n < len(t.rows) {
		return t.rows[n]
	}
	return nil
}

// At returns the verdict at pc of method number n.
func (t *Verdicts) At(n, pc int) Verdict {
	if row := t.Of(n); row != nil {
		return row[pc]
	}
	return VerdictNone
}

// Decoded is the table's slot for an executor; the table never reads it.
func (t *Verdicts) Decoded() *atomic.Value { return &t.decoded }

// SetVerdicts installs a new table of rows by method number (nil rows prove
// nothing) in one store and returns it. The table takes the rows over.
func (p *Program) SetVerdicts(rows [][]Verdict) *Verdicts {
	s := p.Symbols()
	for n, row := range rows {
		if len(rows) != len(s.Methods) || row != nil && len(row) != len(s.Methods[n].Code) {
			panic("bytecode: verdict rows do not fit the program's methods")
		}
	}
	t := &Verdicts{rows: rows}
	s.verdicts.Store(t)
	return t
}

// Verdicts returns the table installed last, installing an empty one
// (every barrier kept) when there is none. AddClass drops the table with
// the symbols, and a Clone starts without one.
func (p *Program) Verdicts() *Verdicts {
	s := p.Symbols()
	if t := s.verdicts.Load(); t == nil {
		s.verdicts.CompareAndSwap(nil, &Verdicts{})
	}
	return s.verdicts.Load()
}
