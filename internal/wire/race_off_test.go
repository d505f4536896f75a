//go:build !race

package wire

const raceDetector = false
