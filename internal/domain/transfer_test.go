package domain

import (
	"testing"

	"satbelim/internal/bytecode"
)

// TestEarnKeepsTheStrongestVerdict: a site keeps the strongest verdict it
// earns, whatever the order the judgments arrive in (the swap detector
// reports after a block's stores were judged one by one): every
// permutation of every subset of the verdicts ends at the subset's maximum
// in the enum's order.
func TestEarnKeepsTheStrongestVerdict(t *testing.T) {
	all := []bytecode.Verdict{bytecode.VerdictNone, bytecode.VerdictRearrange,
		bytecode.VerdictNullOrSame, bytecode.VerdictPreNull}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("verdict order: %v is not weaker than %v", all[i-1], all[i])
		}
	}
	var permute func(earned, rest []bytecode.Verdict)
	permute = func(earned, rest []bytecode.Verdict) {
		j := &Judgment{verdicts: make([]bytecode.Verdict, 1)}
		want := bytecode.VerdictNone
		for _, v := range earned {
			j.earn(0, v)
			want = max(want, v)
		}
		if got := j.verdicts[0]; got != want {
			t.Errorf("earned %v in that order: site ends %v, want %v", earned, got, want)
		}
		for i, v := range rest {
			next := append(append([]bytecode.Verdict(nil), rest[:i]...), rest[i+1:]...)
			permute(append(earned[:len(earned):len(earned)], v), next)
		}
	}
	permute(nil, all)
}
