//go:build race

package inline

// raceDetector reports that the tests were built with -race.
const raceDetector = true
