//go:build !race

package verifier

// raceDetector reports that the tests were built with -race.
const raceDetector = false
