// Package bloom implements the Bloom filters used to compress semijoin
// sets. Shipping a filter of the running set instead of the set itself is
// the classic "Bloomjoin" refinement of distributed semijoins (Mackert &
// Lohman, 1986); this repository implements it as a documented extension
// beyond the EDBT 1998 paper: a third per-source evaluation method the
// semijoin-adaptive optimizer can pick when a source supports it.
//
// The source tests its candidate items against the filter and returns the
// positives (true matches plus a tunable rate of false positives); the
// mediator intersects the reply with the actual running set, so results
// stay exact.
package bloom

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// DefaultBitsPerItem sizes filters at 10 bits per expected item, giving
// roughly a 1% false-positive rate with the derived hash count.
const DefaultBitsPerItem = 10

// Filter is a classic Bloom filter over strings.
type Filter struct {
	bits   []uint64
	nbits  uint64
	k      int
	nAdded int
}

// New creates a filter sized for expectedItems at bitsPerItem bits each
// (DefaultBitsPerItem when <= 0). The hash count k is derived optimally
// (k = bitsPerItem·ln 2, at least 1).
func New(expectedItems, bitsPerItem int) *Filter {
	nbits, k := shape(expectedItems, bitsPerItem)
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: nbits,
		k:     k,
	}
}

// shape is the bit count and hash count New gives a filter.
func shape(expectedItems, bitsPerItem int) (nbits uint64, k int) {
	if expectedItems < 1 {
		expectedItems = 1
	}
	if bitsPerItem <= 0 {
		bitsPerItem = DefaultBitsPerItem
	}
	nbits = uint64(expectedItems * bitsPerItem)
	if nbits < 64 {
		nbits = 64
	}
	k = int(math.Round(float64(bitsPerItem) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return nbits, k
}

// hashes derives the k bit positions for an item with double hashing over
// two FNV variants.
func (f *Filter) hashes(item string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(item))
	a := h1.Sum64()
	h2 := fnv.New64()
	h2.Write([]byte(item))
	b := h2.Sum64() | 1 // odd, so the stride covers all positions
	return a, b
}

// Add inserts an item.
func (f *Filter) Add(item string) {
	a, b := f.hashes(item)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.nAdded++
}

// Test reports whether the item may have been added (no false negatives).
func (f *Filter) Test(item string) bool {
	a, b := f.hashes(item)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of added items.
func (f *Filter) Len() int { return f.nAdded }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Bytes returns the filter's wire size in bytes.
func (f *Filter) Bytes() int { return len(f.bits) * 8 }

// FalsePositiveRate estimates the current false-positive probability from
// the standard Bloom formula.
func (f *Filter) FalsePositiveRate() float64 {
	if f.nAdded == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.nAdded) / float64(f.nbits)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// EstimateFalsePositiveRate predicts the false-positive rate of a filter
// built with the given parameters, for cost estimation before any filter
// exists.
func EstimateFalsePositiveRate(items, bitsPerItem int) float64 {
	if items == 0 {
		return 0
	}
	nbits, k := shape(items, bitsPerItem)
	exp := -float64(k) * float64(items) / float64(nbits)
	return math.Pow(1-math.Exp(exp), float64(k))
}

// FromItems builds a filter holding all the given items.
func FromItems(items []string, bitsPerItem int) *Filter {
	f := New(len(items), bitsPerItem)
	for _, it := range items {
		f.Add(it)
	}
	return f
}

// Encode serializes the filter for the wire protocol.
func (f *Filter) Encode() string {
	buf := make([]byte, 8+8+8+len(f.bits)*8)
	binary.LittleEndian.PutUint64(buf[0:], f.nbits)
	binary.LittleEndian.PutUint64(buf[8:], uint64(f.k))
	binary.LittleEndian.PutUint64(buf[16:], uint64(f.nAdded))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(buf[24+8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// Decode deserializes a filter produced by Encode.
func Decode(s string) (*Filter, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	if len(buf) < 24 || (len(buf)-24)%8 != 0 {
		return nil, fmt.Errorf("bloom: truncated filter (%d bytes)", len(buf))
	}
	f := &Filter{
		nbits:  binary.LittleEndian.Uint64(buf[0:]),
		k:      int(binary.LittleEndian.Uint64(buf[8:])),
		nAdded: int(binary.LittleEndian.Uint64(buf[16:])),
		bits:   make([]uint64, (len(buf)-24)/8),
	}
	if f.k < 1 || f.nbits == 0 || uint64(len(f.bits)) != (f.nbits+63)/64 {
		return nil, fmt.Errorf("bloom: inconsistent filter header")
	}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(buf[24+8*i:])
	}
	return f, nil
}
