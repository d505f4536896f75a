package set

import (
	"math/bits"
	"sync"
)

// Batch buffers. A stream lends its batches (see Iter), so a producer can
// fill the same buffer again once its consumer has moved on; the buffers
// themselves come from one pool, sized in power-of-two classes that cover
// a Schedule's 1× to MaxGrowth× of any usual first batch. A buffer goes back
// cleared, so the pool pins no item strings; a race-detector build
// overwrites it with Recycled instead (pool_race.go), so a consumer that
// keeps a lent batch reads items no stream has and its answer is wrong.

const (
	// minClass and maxClass bound the pooled capacities: 2^minClass to
	// 2^maxClass items. A smaller request gets the smallest class; a larger
	// one gets a buffer of its own, which PutBatch lets go.
	minClass = 4
	maxClass = 16
)

// Recycled is what a race-detector build writes over a batch buffer when it
// goes back to the pool: an item no source has, which sorts before every
// item that does, so a consumer that kept a lent batch past its lifetime
// answers with it (or out of order) instead of by luck.
const Recycled = "\x00set: recycled batch buffer"

var batchPools [maxClass - minClass + 1]sync.Pool

// GetBatch returns an empty buffer with room for at least n items. Its
// owner gives it back with PutBatch when nothing reads it any more.
func GetBatch(n int) *[]string {
	c := max(bits.Len(uint(max(n, 1)-1)), minClass)
	if c > maxClass {
		b := make([]string, 0, n)
		return &b
	}
	if p, ok := batchPools[c-minClass].Get().(*[]string); ok {
		return p
	}
	b := make([]string, 0, 1<<c)
	return &b
}

// PutBatch gives back a buffer from GetBatch: it is recycled, so neither
// its owner nor anyone the owner lent it to may read it again. A nil
// buffer, or one of a capacity no class has, is let go.
func PutBatch(p *[]string) {
	if p == nil {
		return
	}
	b := (*p)[:cap(*p)]
	n, c := len(b), bits.TrailingZeros(uint(len(b)))
	if n == 0 || n&(n-1) != 0 || c < minClass || c > maxClass {
		return
	}
	recycle(b)
	*p = b[:0]
	batchPools[c-minClass].Put(p)
}

// Buffer is the one buffer a producer fills batch after batch. The zero
// Buffer holds nothing.
type Buffer struct{ p *[]string }

// Take returns the buffer emptied, with room for exactly n items; a buffer
// with less room is first swapped for one from the pool. What the previous
// Take returned is overwritten from here on.
func (b *Buffer) Take(n int) []string {
	if b.p == nil || cap(*b.p) < n {
		PutBatch(b.p)
		b.p = GetBatch(n)
	}
	return (*b.p)[:0:n]
}

// Release gives the buffer back to the pool; the Buffer is then empty.
func (b *Buffer) Release() {
	PutBatch(b.p)
	b.p = nil
}
