//go:build !race

package codegen

// raceDetector reports that the tests were built with -race.
const raceDetector = false
