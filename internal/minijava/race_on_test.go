//go:build race

package minijava

// raceDetector reports that the tests were built with -race.
const raceDetector = true
