// Package ignored is testdata/finding with its one finding suppressed.
package ignored

// Spawn launches f with nothing owning its lifetime.
func Spawn(f func()) {
	//fqlint:ignore nakedgo f returns when the caller's work does
	go f()
}
