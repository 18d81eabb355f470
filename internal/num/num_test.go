package num

import (
	"math"
	"testing"
)

func TestB2I(t *testing.T) {
	if B2I(true) != 1 || B2I(false) != 0 {
		t.Fatalf("B2I: got %d/%d", B2I(true), B2I(false))
	}
}

func TestU64(t *testing.T) {
	cases := []struct {
		in   int64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{math.MaxInt64, math.MaxInt64},
		{-1, 0},
		{math.MinInt64, 0},
	}
	for _, c := range cases {
		if got := U64(c.in); got != c.want {
			t.Errorf("U64(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAddSat(t *testing.T) {
	cases := []struct {
		a, b, want uint64
	}{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxUint64, 0, math.MaxUint64},
		{math.MaxUint64, 1, math.MaxUint64},
		{math.MaxUint64 - 1, 1, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1, 4); got != 25 {
		t.Errorf("Pct(1, 4) = %v, want 25", got)
	}
	if got := Pct(uint64(3), uint64(3)); got != 100 {
		t.Errorf("Pct(3, 3) = %v, want 100", got)
	}
	if got := Pct(uint64(7), 0); got != 0 {
		t.Errorf("Pct(7, 0) = %v, want 0 for an empty column", got)
	}
}
