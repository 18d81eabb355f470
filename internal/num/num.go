// Package num holds the shared numeric conversion helpers used by the VM,
// the barrier cost model and the reports: branch-free-ish bool→int
// conversion, overflow-safe (saturating) unsigned accumulation and the
// percentage every table prints. Centralizing them keeps every int-width
// conversion in one audited place.
package num

import "math"

// B2I converts a boolean to the VM's canonical 0/1 integer encoding.
func B2I(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// U64 converts a non-negative int64 counter to uint64, clamping negative
// inputs to zero instead of wrapping to huge values.
func U64(i int64) uint64 {
	if i < 0 {
		return 0
	}
	return uint64(i)
}

// AddSat returns a+b, saturating at math.MaxUint64 instead of wrapping.
// Cost-model totals use it so a pathological run degrades to "maximum
// cost" rather than a small wrapped number that would invert comparisons.
func AddSat(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return math.MaxUint64
	}
	return s
}

// Pct returns n as a percentage of d, 0 when d is 0 (an empty column reads
// as "nothing eliminated", not NaN).
func Pct[T ~int | ~uint64](n, d T) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
