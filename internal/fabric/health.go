package fabric

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencyRing is a fixed-capacity ring of recent latency observations: a
// logical source's, the hedge deadline's percentile basis.
type latencyRing struct {
	mu   sync.Mutex
	buf  []float64 // seconds
	next int
	n    int
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{buf: make([]float64, capacity)}
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = d.Seconds()
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *latencyRing) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// percentile returns the p-quantile (0 < p ≤ 1) of the retained
// observations, 0 when empty.
func (r *latencyRing) percentile(p float64) time.Duration {
	r.mu.Lock()
	vals := make([]float64, r.n)
	copy(vals, r.buf[:r.n])
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(p*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return time.Duration(vals[idx] * float64(time.Second))
}

// health scores one endpoint: an EWMA of observed exchange latencies (its
// consecutive failures are its breaker's count). Replica selection prefers
// low scores; an endpoint with no observations yet scores zero so fresh
// replicas get traffic immediately.
type health struct {
	mu     sync.Mutex
	ewma   float64 // seconds; 0 until the first observation
	seeded bool
}

// ewmaAlpha is the latency EWMA's smoothing factor.
const ewmaAlpha = 0.3

func (h *health) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := d.Seconds()
	if !h.seeded {
		h.ewma = s
		h.seeded = true
	} else {
		h.ewma = ewmaAlpha*s + (1-ewmaAlpha)*h.ewma
	}
}

// score is the EWMA latency in seconds; selection multiplies it by the
// endpoint's in-flight load.
func (h *health) score() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ewma
}
