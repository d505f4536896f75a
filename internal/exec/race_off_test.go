//go:build !race

package exec

const raceDetector = false
