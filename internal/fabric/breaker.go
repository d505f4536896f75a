package fabric

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The three breaker states. The numeric values are exported on the
// fq_breaker_state gauge.
const (
	// BreakerClosed admits traffic normally.
	BreakerClosed BreakerState = 0
	// BreakerHalfOpen admits a single probe exchange; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen BreakerState = 1
	// BreakerOpen rejects the endpoint for selection until the cooldown
	// elapses.
	BreakerOpen BreakerState = 2
)

// String renders the state for traces and tests.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breaker is a per-endpoint three-state circuit breaker, and the count of the
// endpoint's consecutive failures. Closed endpoints take traffic;
// failureThreshold consecutive failures open the breaker; after the cooldown
// the next attempt runs as a half-open probe whose outcome either closes the
// breaker or re-opens it for another cooldown.
//
// The breaker gates replica *selection*, not correctness: when every
// breaker-preferred endpoint is exhausted the fabric still tries the least
// recently failed one, so an exchange only reports ErrExhausted after every
// replica actually failed.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
}

// selectable reports whether the endpoint should receive regular traffic:
// closed, open past its cooldown (eligible for a probe), or half-open with
// no probe currently in flight.
func (b *breaker) selectable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return !b.probing
	default:
		return time.Since(b.openedAt) >= cooldown
	}
}

// markAttempt notes that an exchange is about to run on this endpoint,
// transitioning open→half-open when the cooldown has elapsed and claiming
// the probe slot.
func (b *breaker) markAttempt() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= cooldown {
		b.state = BreakerHalfOpen
	}
	if b.state == BreakerHalfOpen {
		b.probing = true
	}
}

// success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// failure counts a genuine endpoint failure, in every state until success
// resets the count: failureThreshold consecutive failures trip closed→open
// (closed is re-entered only through success), and a failed half-open probe
// re-opens immediately.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
	case BreakerClosed:
		if b.fails >= failureThreshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
		}
	default: // already open: refresh the cooldown
		b.openedAt = time.Now()
	}
}

// State returns the current breaker position.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// consecutiveFails is how many failures there have been since the last
// success.
func (b *breaker) consecutiveFails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}
