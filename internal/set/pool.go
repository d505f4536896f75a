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
	// one gets a buffer of its own, which Release lets go.
	minClass = 4
	maxClass = 16
)

// Recycled is what a race-detector build writes over a batch buffer when it
// goes back to the pool: an item no source has, which sorts before every
// item that does, so a consumer that kept a lent batch past its lifetime
// answers with it (or out of order) instead of by luck.
const Recycled = "\x00set: recycled batch buffer"

var batchPools [maxClass - minClass + 1]sync.Pool

// classOf is the class of a pooled buffer of capacity n: n is a power of
// two from 2^minClass to 2^maxClass.
func classOf(n int) (int, bool) {
	c := bits.TrailingZeros(uint(n))
	return c, n > 0 && n&(n-1) == 0 && c >= minClass && c <= maxClass
}

// The pool holds buffers by pointer, as sync.Pool wants, and everyone else
// holds the slice by value. boxes keeps the pointers a buffer left behind
// when Alloc took it, so that Release has one to put it back in: neither
// allocates once the pools are warm. The boxes are this file's alone.
var boxes sync.Pool

// Alloc returns an empty slice with room for at least n items, from the
// batch pool when n has a class: the one way to get a pooled item buffer,
// for a set's items or a stream's batch. Its owner gives it back with
// Release when nothing reads it any more.
func Alloc(n int) []string {
	c := max(bits.Len(uint(max(n, 1)-1)), minClass)
	if c > maxClass {
		return make([]string, 0, n)
	}
	p, ok := batchPools[c-minClass].Get().(*[]string)
	if !ok {
		return make([]string, 0, 1<<c)
	}
	b := *p
	*p = nil
	boxes.Put(p)
	return b
}

// Release gives the buffer under s back to the batch pool: the one way to
// give a pooled buffer back, a batch that is no set going as
// Release(FromSorted(batch)). Only its sole owner may call it — the caller
// of a source's Select, say, which nobody else has seen — and once it has,
// neither it nor anyone it lent or showed the buffer to may read it again:
// it is cleared, and a race-detector build overwrites its items with
// Recycled. A buffer whose capacity is no class's, such as a set UnionAll
// made at exactly its size, is let go: a buffer to give back comes from
// Alloc (UnionWith, IntersectWith and DiffWith can take it).
func Release(s Set) {
	c, ok := classOf(cap(s.items))
	if !ok {
		return
	}
	b := s.items[:cap(s.items)]
	recycle(b)
	p, _ := boxes.Get().(*[]string)
	if p == nil {
		p = new([]string)
	}
	*p = b[:0]
	batchPools[c-minClass].Put(p)
}

// Buffer is the one buffer a producer fills batch after batch. The zero
// Buffer holds nothing.
type Buffer struct{ b []string }

// Take returns the buffer emptied, with room for exactly n items; a buffer
// with less room is first swapped for one from the pool. What the previous
// Take returned is overwritten from here on.
func (b *Buffer) Take(n int) []string {
	if b.b == nil || cap(b.b) < n {
		b.Release()
		b.b = Alloc(n)
	}
	return b.b[:0:n]
}

// Release gives the buffer back to the pool; the Buffer is then empty.
func (b *Buffer) Release() {
	Release(Set{items: b.b})
	b.b = nil
}
