//go:build race

package source

// raceDetector says the tests were built with -race, under which sync.Pool
// drops a quarter of what is put back, so a warm pool is not guaranteed.
const raceDetector = true
