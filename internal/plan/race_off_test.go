//go:build !race

package plan_test

const raceDetector = false
