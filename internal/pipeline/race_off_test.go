//go:build !race

package pipeline

// raceDetector reports that the tests were built with -race.
const raceDetector = false
