package set

import "math"

// MaxGrowth is how far a stream's batches grow: every batch after the first
// is double the one before, up to MaxGrowth times the first. Only the first
// batch buys first-answer latency, so it keeps the size asked for; the later
// ones grow to amortize what each batch costs (an exchange per chunk, a probe
// per semijoin input batch), and the cap keeps every batch buffer, and so
// the bytes in flight, bounded by the first batch's size.
const MaxGrowth = 16

// Schedule is the one batch schedule every stream follows: a materialized
// set streamed (IterOf), a merge's output, a node's emission, a chunked wire
// transfer. A zero Schedule is not usable; start one with NewSchedule.
type Schedule struct {
	next, max int
}

// NewSchedule starts the schedule of a stream whose first batch has first
// items (DefaultBatch when first <= 0). Sizes saturate at math.MaxInt
// instead of overflowing: first may come from an untrusted peer.
func NewSchedule(first int) Schedule {
	if first <= 0 {
		first = DefaultBatch
	}
	max := math.MaxInt
	if first <= math.MaxInt/MaxGrowth {
		max = first * MaxGrowth
	}
	return Schedule{next: first, max: max}
}

// Next returns the size of the stream's next batch and advances the
// schedule.
func (s *Schedule) Next() int {
	n := s.next
	if s.next > s.max/2 {
		s.next = s.max
	} else {
		s.next *= 2
	}
	return n
}

// Batches is how many batches the schedule from first cuts n items into:
// zero for n <= 0. It is the count the streaming cost estimate prices, so it
// takes a cardinality estimate; for an integer n below 2^53 it is exact.
func Batches(n float64, first int) float64 {
	s := NewSchedule(first)
	k := 0.0
	for n > 0 {
		size := s.Next()
		if size == s.max {
			// Every later batch is this size.
			return k + math.Ceil(n/float64(size))
		}
		n -= float64(size)
		k++
	}
	return k
}
