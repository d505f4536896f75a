//go:build race

package set

func recycle(b []string) {
	for i := range b {
		b[i] = Recycled
	}
}
