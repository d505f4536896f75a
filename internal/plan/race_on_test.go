//go:build race

package plan_test

// raceDetector says the tests were built with -race, whose instrumentation
// allocates now and then on its own.
const raceDetector = true
