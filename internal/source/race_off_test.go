//go:build !race

package source

const raceDetector = false
