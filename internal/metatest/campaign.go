package metatest

import (
	"errors"
	"fmt"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/progen"
)

// Options configures a campaign run.
type Options struct {
	// Base is the first generator seed; Seeds is how many consecutive
	// seeds to run.
	Base  int64
	Seeds int
	// Gen is the generator configuration; the zero value means
	// progen.CampaignConfig() (all idiom knobs on).
	Gen progen.Config
	// Analysis is the analysis configuration every property compiles
	// under. A soundness bug reaches the campaign only as a mutant of the
	// analysis's source (internal/mutants), never through this value.
	Analysis core.Options
	// Props filters the property library by name; empty means all.
	Props []string
	// Budget caps wall-clock time; 0 means unlimited. The campaign
	// checks the budget between property evaluations and finishes the
	// current one, so slightly overshooting is possible.
	Budget time.Duration
	// MaxFailures stops the campaign early once reached (0 means 10):
	// a broken analysis fails on nearly every seed, and shrinking each
	// is pointless.
	MaxFailures int
	// MaxShrinkChecks bounds predicate evaluations per shrink (0 means
	// the shrinker default).
	MaxShrinkChecks int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one shrunk counterexample, replayable via the Seed (with
// the same generator config) or the Repro source directly.
type Failure struct {
	Seed         int64  `json:"seed"`
	Property     string `json:"property"`
	Message      string `json:"message"`
	Source       string `json:"source"`
	Repro        string `json:"repro"`
	ReproLines   int    `json:"reproLines"`
	ShrinkChecks int    `json:"shrinkChecks"`
}

// Result summarizes a campaign.
type Result struct {
	SeedsRun        int           `json:"seedsRun"`
	Checks          int           `json:"checks"`
	Failures        []*Failure    `json:"failures,omitempty"`
	BudgetExhausted bool          `json:"budgetExhausted,omitempty"`
	Elapsed         time.Duration `json:"elapsedNs"`
}

// selectProps resolves the Props filter against the library.
func selectProps(names []string) ([]Property, error) {
	all := Properties()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Property{}
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []Property
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown property %q (have %v)", n, PropertyNames())
		}
		out = append(out, p)
	}
	return out, nil
}

// RunCampaign generates Seeds programs and checks every selected property
// on each, shrinking counterexamples as they appear.
func RunCampaign(opts Options) (*Result, error) {
	props, err := selectProps(opts.Props)
	if err != nil {
		return nil, err
	}
	gen := opts.Gen
	if gen == (progen.Config{}) {
		gen = progen.CampaignConfig()
	}
	maxFail := opts.MaxFailures
	if maxFail <= 0 {
		maxFail = 10
	}
	start := time.Now()
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{}
	for i := 0; i < opts.Seeds; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.BudgetExhausted = true
			break
		}
		seed := opts.Base + int64(i)
		src := progen.Generate(seed, gen)
		res.SeedsRun++
		for _, p := range props {
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.BudgetExhausted = true
				break
			}
			res.Checks++
			err := p.Check(src, opts.Analysis)
			if err == nil {
				continue
			}
			var v *Violation
			if !errors.As(err, &v) {
				// Not a counterexample: the generator emitted something the
				// toolchain rejects, which is itself a bug worth surfacing.
				return res, fmt.Errorf("seed %d, property %s: %w", seed, p.Name, err)
			}
			logf("seed %d: %s FAILED: %s (shrinking)", seed, p.Name, v.Msg)
			res.Failures = append(res.Failures, shrinkFailure(seed, src, p, opts.Analysis, opts.MaxShrinkChecks, v))
			if len(res.Failures) >= maxFail {
				logf("stopping after %d failures", len(res.Failures))
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
		if res.BudgetExhausted {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// shrinkFailure minimizes src while the property keeps failing. A
// candidate must also still run to completion with the analysis
// disabled: shrinker deletions can manufacture programs that fault for
// reasons unrelated to any elision decision (falling off the end of an
// int method, dividing by a zeroed static), and such faults would
// satisfy any property's "run error ⇒ violation" clause and hijack the
// shrink toward a repro that no longer demonstrates the original bug.
func shrinkFailure(seed int64, src string, p Property, analysis core.Options, maxChecks int, v *Violation) *Failure {
	keep := func(s string) bool {
		if !runsStandalone(s) {
			return false
		}
		var sv *Violation
		return errors.As(p.Check(s, analysis), &sv)
	}
	sr := Shrink(src, keep, maxChecks)
	return &Failure{
		Seed:         seed,
		Property:     p.Name,
		Message:      v.Msg,
		Source:       src,
		Repro:        sr.Source,
		ReproLines:   sr.Lines,
		ShrinkChecks: sr.Checks,
	}
}

// CheckSource runs the selected properties against one source text (the
// -repro replay path). It returns the violations found; non-violation
// errors (e.g. the source does not compile) abort.
func CheckSource(src string, analysis core.Options, propNames []string) ([]*Violation, error) {
	props, err := selectProps(propNames)
	if err != nil {
		return nil, err
	}
	var out []*Violation
	for _, p := range props {
		err := p.Check(src, analysis)
		if err == nil {
			continue
		}
		var v *Violation
		if !errors.As(err, &v) {
			return out, fmt.Errorf("property %s: %w", p.Name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ReplaySeed regenerates one seed with the given generator config and
// checks it (the -seed replay path).
func ReplaySeed(seed int64, gen progen.Config, analysis core.Options, propNames []string) (string, []*Violation, error) {
	if gen == (progen.Config{}) {
		gen = progen.CampaignConfig()
	}
	src := progen.Generate(seed, gen)
	vs, err := CheckSource(src, analysis, propNames)
	return src, vs, err
}
