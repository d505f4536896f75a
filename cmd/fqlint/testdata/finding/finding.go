// Package finding has one nakedgo finding: an untracked goroutine.
package finding

// Spawn launches f with nothing owning its lifetime.
func Spawn(f func()) {
	go f()
}
