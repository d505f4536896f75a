//go:build !race

package set

func recycle(b []string) { clear(b) }
