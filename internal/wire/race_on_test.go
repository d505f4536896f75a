//go:build race

package wire

// raceDetector says the tests were built with -race, under which sync.Pool
// drops a quarter of what is put back, so encoding/json's pooled encoder
// state is not always there to reuse.
const raceDetector = true
