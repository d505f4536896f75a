package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

var testSchema = relation.MustSchema("M", relation.Column{Name: "M"})

// stub is a controllable physical source: optional per-op delay (honoring
// ctx) and an optional injected failure.
type stub struct {
	name   string
	delay  time.Duration
	answer set.Set

	mu         sync.Mutex
	fail       error
	calls      int
	ctxAborted int
}

func newStub(name string) *stub { return &stub{name: name, answer: set.New("a", "b")} }

func (s *stub) setFail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = err
}

func (s *stub) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *stub) aborted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctxAborted
}

func (s *stub) run(ctx context.Context) error {
	s.mu.Lock()
	s.calls++
	fail := s.fail
	s.mu.Unlock()
	if s.delay > 0 {
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			s.mu.Lock()
			s.ctxAborted++
			s.mu.Unlock()
			return fmt.Errorf("stub %s: %w", s.name, ctx.Err())
		}
	}
	if fail != nil {
		return fmt.Errorf("stub %s: %w", s.name, fail)
	}
	return nil
}

func (s *stub) Name() string              { return s.name }
func (s *stub) Schema() *relation.Schema  { return testSchema }
func (s *stub) Caps() source.Capabilities { return source.Capabilities{PassedBindings: true} }
func (s *stub) Card() (int, int, int)     { return 2, 2, 16 }
func (s *stub) Load(ctx context.Context) (*relation.Relation, error) {
	return nil, source.ErrUnsupported
}
func (s *stub) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	if err := s.run(ctx); err != nil {
		return set.Set{}, err
	}
	return s.answer, nil
}
func (s *stub) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	return set.Set{}, source.ErrUnsupported
}
func (s *stub) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	if err := s.run(ctx); err != nil {
		return false, err
	}
	return s.answer.Contains(item), nil
}
func (s *stub) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	return nil, source.ErrUnsupported
}
func (s *stub) SelectRecords(ctx context.Context, c cond.Cond) ([]relation.Tuple, error) {
	return nil, source.ErrUnsupported
}
func (s *stub) SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error) {
	return nil, source.ErrUnsupported
}
func (s *stub) SemijoinBloom(ctx context.Context, c cond.Cond, f *bloom.Filter) (set.Set, error) {
	return set.Set{}, source.ErrUnsupported
}

func mustLogical(t *testing.T, name string, opts Options, stubs ...*stub) *Logical {
	t.Helper()
	eps := make([]*Endpoint, len(stubs))
	for i, s := range stubs {
		eps[i] = NewEndpoint(s, 2)
	}
	l, err := NewLogical(name, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFailoverAcrossReplicas(t *testing.T) {
	bad, good := newStub("R1a"), newStub("R1b")
	bad.setFail(source.ErrTransient)
	l := mustLogical(t, "R1", Options{NoSpeculation: true}, bad, good)

	cs := &CallStats{}
	ctx := WithCallStats(context.Background(), cs)
	// Run enough exchanges that both replicas are hit as primary at least
	// once; every exchange must succeed via failover.
	for i := 0; i < 10; i++ {
		got, err := l.Select(ctx, cond.True{})
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if !got.Equal(good.answer) {
			t.Fatalf("exchange %d: answer %v", i, got)
		}
	}
	if l.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead replica")
	}
	if cs.Failovers.Load() != l.Stats().Failovers {
		t.Fatalf("call stats failovers %d != logical stats %d", cs.Failovers.Load(), l.Stats().Failovers)
	}
	// The dead replica's breaker must have tripped, steering primaries away.
	if st := l.EndpointStates()["R1a"]; st != BreakerOpen {
		t.Fatalf("dead replica breaker = %v, want open", st)
	}
	if l.Alive() != true {
		t.Fatal("logical source with a healthy replica reported dead")
	}
}

func TestExhaustedWhenAllReplicasFail(t *testing.T) {
	a, b := newStub("R1a"), newStub("R1b")
	a.setFail(source.ErrTransient)
	b.setFail(source.ErrTransient)
	l := mustLogical(t, "R1", Options{}, a, b)

	_, err := l.Select(context.Background(), cond.True{})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Source != "R1" || ex.Replicas != 2 {
		t.Fatalf("ExhaustedError not recoverable from %v", err)
	}
	// The transient cause stays visible through the wrap.
	if !source.IsTransient(err) {
		t.Fatalf("exhausted-over-transient should classify transient: %v", err)
	}
	if a.callCount() == 0 || b.callCount() == 0 {
		t.Fatal("exhaustion reported without trying every replica")
	}
}

func TestPermanentErrorDoesNotFailOver(t *testing.T) {
	a, b := newStub("R1a"), newStub("R1b")
	perm := errors.New("malformed condition")
	a.setFail(perm)
	b.setFail(perm)
	l := mustLogical(t, "R1", Options{}, a, b)

	_, err := l.Select(context.Background(), cond.True{})
	if !errors.Is(err, perm) {
		t.Fatalf("err = %v, want the permanent cause", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("permanent failure misclassified as exhaustion: %v", err)
	}
	if a.callCount()+b.callCount() != 1 {
		t.Fatalf("permanent failure was retried across replicas: %d+%d calls", a.callCount(), b.callCount())
	}
}

func TestBreakerTripsProbesAndRecovers(t *testing.T) {
	a := newStub("R1a")
	a.setFail(source.ErrTransient)
	l := mustLogical(t, "R1", Options{}, a)
	ctx := context.Background()

	for i := 0; i < failureThreshold; i++ {
		if _, err := l.Select(ctx, cond.True{}); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := l.Endpoints()[0].BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}
	if l.Alive() {
		t.Fatal("logical source with every breaker open reported alive")
	}
	// Within the cooldown the endpoint is not selectable, but a single-
	// replica logical source still tries it (correctness over preference).
	if _, err := l.Select(ctx, cond.True{}); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// After the cooldown the next attempt is a half-open probe; a success
	// closes the breaker. The opening moves back by a cooldown instead of the
	// test sleeping through one.
	a.setFail(nil)
	brk := l.eps[0].brk
	brk.mu.Lock()
	brk.openedAt = brk.openedAt.Add(-cooldown)
	brk.mu.Unlock()
	if _, err := l.Select(ctx, cond.True{}); err != nil {
		t.Fatalf("probe exchange failed: %v", err)
	}
	if st := l.Endpoints()[0].BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", st)
	}
}

// warmRing seeds the logical latency history so hedging arms.
func warmRing(l *Logical, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		l.ring.observe(d)
	}
}

func TestHedgeBackupWinsAndLoserCancelled(t *testing.T) {
	slow, fast := newStub("R1a"), newStub("R1b")
	slow.delay = 200 * time.Millisecond
	fast.delay = time.Millisecond
	l := mustLogical(t, "R1", Options{}, slow, fast)
	warmRing(l, 2*time.Millisecond, hedgeMinSamples)

	cs := &CallStats{}
	ctx := WithCallStats(context.Background(), cs)
	start := time.Now()
	// Force the slow endpoint as primary so the hedge path is exercised
	// deterministically.
	tried := map[*Endpoint]bool{}
	reply, err := attempt(ctx, l, l.eps[0], tried, "sq", source.Call{Op: source.OpSelect, Cond: cond.True{}})
	if err != nil {
		t.Fatal(err)
	}
	if out := reply.Items; !out.Equal(fast.answer) {
		t.Fatalf("answer %v", out)
	}
	if el := time.Since(start); el >= slow.delay {
		t.Fatalf("hedged exchange took %v, not faster than the straggler's %v", el, slow.delay)
	}
	if got := l.Stats(); got.Hedges != 1 || got.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want one hedge and one win", got)
	}
	if cs.Hedges.Load() != 1 || cs.HedgeWins.Load() != 1 {
		t.Fatalf("call stats hedges=%d wins=%d", cs.Hedges.Load(), cs.HedgeWins.Load())
	}
	// The losing primary was cancelled through ctx and its cancellation is
	// not held against its health.
	if slow.aborted() != 1 {
		t.Fatalf("straggler saw %d ctx aborts, want 1", slow.aborted())
	}
	if fails := l.eps[0].health.consecutiveFails(); fails != 0 {
		t.Fatalf("cancelled loser charged %d health failures", fails)
	}
}

// semijoiner is a stub that answers a semijoin with all of y, in a buffer
// of its own from the pool (source.Source). One that straggles runs its
// delay out whatever ctx says, as a wire leg does once its request is sent,
// and records its answer and when it ended.
type semijoiner struct {
	*stub
	straggle time.Duration
	answer   []string
	ended    time.Time
}

func (s *semijoiner) Caps() source.Capabilities { return source.Capabilities{NativeSemijoin: true} }

func (s *semijoiner) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	if err := s.run(ctx); err != nil {
		return set.Set{}, err
	}
	time.Sleep(s.straggle)
	out := append(set.Alloc(y.Len()), y.Items()...)
	s.mu.Lock()
	s.answer, s.ended = out, time.Now()
	s.mu.Unlock()
	return set.FromSorted(out), nil
}

// TestHedgedSemijoinWaitsForItsLoser: a hedged sjq whose primary straggles
// past the backup's answer returns only once both legs have ended, so no
// leg reads the semijoin set after the exchange, and the loser's answer,
// which nobody read, has gone back to the pool.
func TestHedgedSemijoinWaitsForItsLoser(t *testing.T) {
	slow := &semijoiner{stub: newStub("R1a"), straggle: 50 * time.Millisecond}
	fast := &semijoiner{stub: newStub("R1b")}
	fast.delay = time.Millisecond
	eps := []*Endpoint{NewEndpoint(slow, 2), NewEndpoint(fast, 2)}
	l, err := NewLogical("R1", eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmRing(l, 2*time.Millisecond, hedgeMinSamples)
	y := set.New("a", "b", "c")
	reply, err := attempt(context.Background(), l, l.eps[0], map[*Endpoint]bool{}, "sjq",
		source.Call{Op: source.OpSemi, Cond: cond.True{}, Items: y})
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Items.Equal(y) || l.Stats().HedgeWins != 1 {
		t.Fatalf("answer %v, stats %+v; want the backup's %v", reply.Items, l.Stats(), y)
	}
	slow.mu.Lock()
	defer slow.mu.Unlock()
	if slow.ended.IsZero() || returned.Before(slow.ended) {
		t.Fatalf("the exchange returned at %v, before its losing leg ended (%v)", returned, slow.ended)
	}
	if got := slow.answer[0]; got != "" && got != set.Recycled {
		t.Fatalf("the losing leg's answer still holds %q: it was not given back", got)
	}
}

// TestHedgedLegsAreChargedToTheCallersLedger: both legs of a hedged exchange
// run under the caller's context, so the loser — cancelled in flight, its
// traffic paid for — is in the caller's ledger exactly as it is in the
// network's log.
func TestHedgedLegsAreChargedToTheCallersLedger(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1a", netsim.Link{Latency: 100 * time.Millisecond})
	network.SetLink("R1b", netsim.Link{Latency: 500 * time.Microsecond})
	network.SetRealTime(1)
	eps := []*Endpoint{
		NewEndpoint(source.Instrument(newStub("R1a"), network), 1),
		NewEndpoint(source.Instrument(newStub("R1b"), network), 1),
	}
	l, err := NewLogical("R1", eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmRing(l, 2*time.Millisecond, hedgeMinSamples)

	var ledger netsim.Ledger
	ctx := netsim.WithLedger(context.Background(), &ledger, 3)
	// The slow endpoint is the primary, so the backup wins and the primary is
	// cancelled inside its exchange.
	if _, err := attempt(ctx, l, l.eps[0], map[*Endpoint]bool{}, "sq", source.Call{Op: source.OpSelect, Cond: cond.True{}}); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats(); got.Hedges != 1 || got.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want one hedge and one win", got)
	}
	log, got := network.Log(), ledger.Entries()
	if len(log) != 2 || log[0].Source != "R1a" || log[1].Source != "R1b" {
		t.Fatalf("log = %+v, want the cancelled primary's exchange and the backup's", log)
	}
	if len(got) != 2 || got[0].Exchange != log[0] || got[1].Exchange != log[1] || got[0].Tag != 3 || got[1].Tag != 3 {
		t.Fatalf("ledger = %+v, want the log's two exchanges %+v under tag 3", got, log)
	}
}

// TestNoSpeculationTurnsOffHedgesAndExploration: over a fast and a slow
// replica, the zero Options now and then explore onto the slow one and hedge
// it with the fast one. NoSpeculation asks the slow replica once, for the
// observation a fresh replica gets, and never hedges.
func TestNoSpeculationTurnsOffHedgesAndExploration(t *testing.T) {
	const exchanges = 300
	for _, tc := range []struct {
		name      string
		opts      Options
		speculate bool
	}{
		{"zero", Options{}, true},
		{"no-speculation", Options{NoSpeculation: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow, fast := newStub("R1a"), newStub("R1b")
			slow.delay, fast.delay = 20*time.Millisecond, 50*time.Microsecond
			l := mustLogical(t, "R1", tc.opts, slow, fast)
			for i := 0; i < exchanges; i++ {
				if _, err := l.Select(t.Context(), cond.True{}); err != nil {
					t.Fatal(err)
				}
			}
			hedges, explored := l.Stats().Hedges, slow.callCount()-1
			if tc.speculate != (hedges > 0) || tc.speculate != (explored > 0) {
				t.Fatalf("%d exchanges: %d hedges, %d picks of the slow replica after its first, want both %s",
					exchanges, hedges, explored, map[bool]string{true: "above 0", false: "0"}[tc.speculate])
			}
		})
	}
}

func TestHedgeDisarmedWithoutHistoryOrReplicas(t *testing.T) {
	a, b := newStub("R1a"), newStub("R1b")
	l := mustLogical(t, "R1", Options{}, a, b)
	if d := l.hedgeDelay(map[*Endpoint]bool{}); d != 0 {
		t.Fatalf("hedge armed with no latency history: %v", d)
	}
	warmRing(l, time.Millisecond, hedgeMinSamples)
	if d := l.hedgeDelay(map[*Endpoint]bool{}); d == 0 {
		t.Fatal("hedge not armed despite history and a spare replica")
	}
	// No spare replica → no hedge.
	if d := l.hedgeDelay(map[*Endpoint]bool{l.eps[1]: true}); d != 0 {
		t.Fatalf("hedge armed with no spare replica: %v", d)
	}
	single := mustLogical(t, "R2", Options{}, newStub("R2a"))
	warmRing(single, time.Millisecond, hedgeMinSamples)
	if d := single.hedgeDelay(map[*Endpoint]bool{}); d != 0 {
		t.Fatalf("hedge armed on single-replica source: %v", d)
	}
}

func TestStreamFailureMarksEndpointUnhealthy(t *testing.T) {
	a, b := newStub("R1a"), newStub("R1b")
	// The sibling replica refuses the open, so the stream deterministically
	// lands on the dying endpoint (exercising open-failover on the way).
	b.setFail(source.ErrTransient)
	l := mustLogical(t, "R1", Options{}, a, b)
	// Wrap the endpoint's source with a streamer that dies mid-stream.
	ep := l.eps[0]
	ep.src = &dyingStreamer{stub: a}

	it, err := l.SelectStream(context.Background(), cond.True{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := it.Next(context.Background())
	if err != nil || len(first) == 0 {
		t.Fatalf("first batch: %v, %v", first, err)
	}
	_, err = it.Next(context.Background())
	if !source.IsTransient(err) {
		t.Fatalf("mid-stream death surfaced as %v, want transient", err)
	}
	if fails := ep.health.consecutiveFails(); fails == 0 {
		t.Fatal("mid-stream failure not charged to endpoint health")
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}
}

// TestStreamOpenDoesNotResetBreaker pins the breaker semantics for streams
// whose opens carry no exchange: an endpoint that reliably opens a stream
// and then dies on the first pull must accumulate consecutive breaker
// failures and trip after failureThreshold attempts — a successful open
// records nothing, or every retry would reset the count and the dead
// endpoint could be re-picked forever.
func TestStreamOpenDoesNotResetBreaker(t *testing.T) {
	a := newStub("R1a")
	l := mustLogical(t, "R1", Options{NoSpeculation: true}, a)
	ep := l.eps[0]
	ep.src = &bornDeadStreamer{stub: a}
	ctx := context.Background()
	for i := 0; i < failureThreshold; i++ {
		it, err := l.SelectStream(ctx, cond.True{}, 1)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := it.Next(ctx); !source.IsTransient(err) {
			t.Fatalf("pull %d: %v, want transient", i, err)
		}
		_ = it.Close()
	}
	if st := ep.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %v after %d consecutive mid-stream deaths, want open", st, failureThreshold)
	}
}

// TestStreamRecordsItsEndpointOnce: a stream is one observation of its
// endpoint, measured from the open to the first batch. Its later pulls pop
// what the transport read ahead; timed one by one, an 11-batch stream whose
// first batch took 20 ms left the latency EWMA near 0.8 ms, and replica
// selection then preferred whichever endpoint last served a stream.
func TestStreamRecordsItsEndpointOnce(t *testing.T) {
	a := newStub("R1a")
	l := mustLogical(t, "R1", Options{NoSpeculation: true}, a)
	ep := l.eps[0]
	ep.src = &slowFirstStreamer{stub: a, open: 10 * time.Millisecond, first: 20 * time.Millisecond, batches: 11}
	ctx := context.Background()
	it, err := l.SelectStream(ctx, cond.True{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		batch, err := it.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		n++
	}
	_ = it.Close()
	if n != 11 {
		t.Fatalf("%d batches, want 11", n)
	}
	if got := time.Duration(ep.health.score() * float64(time.Second)); got < 30*time.Millisecond {
		t.Fatalf("endpoint latency %v after the stream, want the open-to-first-batch 30 ms or more", got)
	}
	if st := ep.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %v after a clean stream", st)
	}
}

// slowFirstStreamer opens streams after open, whose first batch takes first
// and whose later ones are already there.
type slowFirstStreamer struct {
	*stub
	open, first time.Duration
	batches     int
}

func (d *slowFirstStreamer) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	time.Sleep(d.open)
	return &slowFirstIter{first: d.first, left: d.batches}, nil
}

type slowFirstIter struct {
	first   time.Duration
	left, n int
}

func (d *slowFirstIter) Next(ctx context.Context) ([]string, error) {
	if d.n == d.left {
		return nil, nil
	}
	if d.n == 0 {
		time.Sleep(d.first)
	}
	d.n++
	return []string{fmt.Sprintf("ID%06d", d.n)}, nil
}

func (d *slowFirstIter) Close() error { return nil }

// bornDeadStreamer opens streams that fail on the very first pull.
type bornDeadStreamer struct {
	*stub
}

func (d *bornDeadStreamer) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	return &bornDeadIter{}, nil
}

type bornDeadIter struct{}

func (d *bornDeadIter) Next(ctx context.Context) ([]string, error) {
	return nil, fmt.Errorf("born dead: %w", source.ErrTransient)
}

func (d *bornDeadIter) Close() error { return nil }

// dyingStreamer streams one batch then fails transiently.
type dyingStreamer struct {
	*stub
}

func (d *dyingStreamer) SelectStream(ctx context.Context, c cond.Cond, batch int) (set.Iter, error) {
	return &dyingIter{}, nil
}

type dyingIter struct{ n int }

func (d *dyingIter) Next(ctx context.Context) ([]string, error) {
	d.n++
	if d.n == 1 {
		return []string{"a"}, nil
	}
	return nil, fmt.Errorf("dying iter: connection reset: %w", source.ErrTransient)
}

func (d *dyingIter) Close() error { return nil }

func TestNewLogicalValidation(t *testing.T) {
	if _, err := NewLogical("R1", nil, Options{}); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
	a := newStub("R1a")
	if _, err := NewLogical("R1", []*Endpoint{NewEndpoint(a, 1), NewEndpoint(newStub("R1a"), 1)}, Options{}); err == nil {
		t.Fatal("duplicate endpoint names accepted")
	}
	if _, err := NewLogical("R1", []*Endpoint{NewEndpoint(newStub("R1"), 1)}, Options{}); err == nil {
		t.Fatal("endpoint name colliding with logical name accepted")
	}
}

func TestCapsIntersection(t *testing.T) {
	a, b := newStub("R1a"), newStub("R1b")
	l := mustLogical(t, "R1", Options{}, a, b)
	if !l.Caps().PassedBindings || l.Caps().NativeSemijoin {
		t.Fatalf("caps = %+v, want intersection {PassedBindings}", l.Caps())
	}
	rc := l.ReplicaConns()
	if rc["R1a"] != 2 || rc["R1b"] != 2 {
		t.Fatalf("replica conns = %v", rc)
	}
}

// gated holds every selection until open is closed, noting the most it held
// at once.
type gated struct {
	*stub
	open chan struct{}

	mu         sync.Mutex
	held, peak int
}

func (g *gated) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	g.mu.Lock()
	g.held++
	g.peak = max(g.peak, g.held)
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.held--
		g.mu.Unlock()
	}()
	select {
	case <-g.open:
	case <-ctx.Done():
		return set.Set{}, ctx.Err()
	}
	return g.stub.Select(ctx, c)
}

// TestScorecardCountsLegsInFlight: an endpoint's Inflight counts its legs
// from launch to return — one exchanging, one queued at the replica's
// one-connection link — and the link, not the fabric, keeps the replica at
// one exchange at a time.
func TestScorecardCountsLegsInFlight(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1a", netsim.Link{MaxConns: 1})
	g := &gated{stub: newStub("R1a"), open: make(chan struct{})}
	l, err := NewLogical("R1", []*Endpoint{NewEndpoint(source.Instrument(g, network), 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(g.open) })
	defer release()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = l.Select(t.Context(), cond.True{})
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); l.Scorecards()[0].Inflight != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Inflight = %d with two legs launched, want 2", l.Scorecards()[0].Inflight)
		}
	}
	release()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if g.peak != 1 {
		t.Fatalf("the replica held %d selections at once, its link has one connection", g.peak)
	}
	if got := l.Scorecards()[0].Inflight; got != 0 {
		t.Fatalf("Inflight = %d after both legs returned", got)
	}
}
