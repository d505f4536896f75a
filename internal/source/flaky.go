package source

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/set"
)

// ErrTransient marks failures that a mediator may retry: timeouts, dropped
// connections, sources briefly offline — the normal weather of autonomous
// Internet sources. Use errors.Is(err, ErrTransient) (or IsTransient) to
// classify.
var ErrTransient = errors.New("source: transient failure")

// IsTransient reports whether the error is retryable. Context cancellation
// and deadline expiry are never transient: the caller gave up, so retrying
// is wrong even when the underlying failure looks retryable. A source killed
// by simulated churn (netsim.ErrDown) is transient — it may revive, and a
// replica fabric can fail the exchange over to another endpoint.
func IsTransient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, ErrTransient) || errors.Is(err, netsim.ErrDown)
}

// Flaky is the fault-injection layer, deterministic and seeded: each
// operation independently fails with the configured rate before reaching the
// source underneath (a streamed selection when it opens). Tests and
// experiments use it to exercise the mediator's retry policy. An optional
// per-operation stall (SetStall) makes every operation take real wall-clock
// time, honoring context cancellation — the model of a slow or hung
// autonomous source that only a deadline rescues.
type Flaky struct {
	Layer
	rate     float64
	stall    time.Duration
	stallOps map[string]time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	failures int
}

// NewFlaky wraps src so that each operation fails with probability rate
// (clamped to [0,1]); seed makes the failure sequence reproducible.
func NewFlaky(src Source, rate float64, seed int64) *Flaky {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	f := &Flaky{rate: rate, rng: rand.New(rand.NewSource(seed))}
	f.Layer = Over(src, f.exchange)
	return f
}

// exchange is the layer's handler.
func (f *Flaky) exchange(ctx context.Context, call Call) (Reply, error) {
	if err := f.trip(ctx, string(call.Op)); err != nil {
		return Reply{}, err
	}
	return Do(ctx, f.Source, call)
}

// SetStall makes every operation sleep d of wall-clock time before reaching
// the inner source. The sleep observes the operation's context: a cancelled
// or expired context aborts the stall with an error wrapping ctx.Err().
// Returns the receiver for chaining.
func (f *Flaky) SetStall(d time.Duration) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
	return f
}

// SetStallFor stalls only the named operation ("sq", "sjq", "binding",
// "lq", "fetch", "sqr", "sjqr", "sjqb", "stats"), overriding the uniform SetStall
// duration for that operation. Experiments use it to model a source that
// answers selections promptly but hangs on semijoins, so a deadline is the
// only way out mid-query. Returns the receiver for chaining.
func (f *Flaky) SetStallFor(op string, d time.Duration) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stallOps == nil {
		f.stallOps = map[string]time.Duration{}
	}
	f.stallOps[op] = d
	return f
}

// Failures returns how many operations were failed so far.
func (f *Flaky) Failures() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failures
}

// trip stalls, then decides whether this operation fails.
func (f *Flaky) trip(ctx context.Context, op string) error {
	f.mu.Lock()
	stall := f.stall
	if d, ok := f.stallOps[op]; ok {
		stall = d
	}
	f.mu.Unlock()
	if stall > 0 {
		timer := time.NewTimer(stall)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("source %s: %s: %w", f.Name(), op, ctx.Err())
		}
	}
	// Checked after the stall as well: the context may expire while the
	// timer fires (the select picks arbitrarily among ready cases), and a
	// retry loop may re-enter trip with an already-dead context. Injecting a
	// transient failure then would let a retrying caller spin through its
	// whole budget after it should have stopped.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("source %s: %s: %w", f.Name(), op, err)
	}
	f.mu.Lock()
	failed := f.rng.Float64() < f.rate
	if failed {
		f.failures++
	}
	f.mu.Unlock()
	if failed {
		obs.Meter(ctx).Counter(obs.MInjectedFailures, "source", f.Name(), "op", op).Inc()
		return fmt.Errorf("source %s: %s: %w", f.Name(), op, ErrTransient)
	}
	return nil
}

// Liar is the fault injection for a peer that breaks its contract: every
// semijoin answer carries one item more than it should, Lie, which no
// workload names an item, so it is outside every set a semijoin is sent and
// satisfies no condition. Only a check of the answer against what was sent
// (wire.Client's) tells it from the truth. Served from a wire server, it is
// the lying replica of the contract tests and the oracle's liar class.
type Liar struct{ Source }

// Lie is the item a Liar adds to its semijoin answers.
const Lie = "ZZZ99"

// Semijoin answers as the source underneath does, with Lie added.
func (l Liar) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	out, err := l.Source.Semijoin(ctx, c, y)
	if err != nil {
		return out, err
	}
	lie := set.UnionAll(out, set.New(Lie))
	set.Release(out)
	return lie, nil
}
