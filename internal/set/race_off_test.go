//go:build !race

package set

const raceDetector = false
