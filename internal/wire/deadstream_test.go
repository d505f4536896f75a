package wire

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// blockingSource stalls Select until its context is cancelled, closing
// entered when the first call arrives. It pins the server mid-transfer
// deterministically: the client's chunked stream is open and waiting while
// the server is killed.
type blockingSource struct {
	source.Source
	entered chan struct{}
	once    sync.Once
}

func (b *blockingSource) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	b.once.Do(func() { close(b.entered) })
	<-ctx.Done()
	return set.Set{}, ctx.Err()
}

// TestSelectStreamServerDeath kills the server while a chunked selection is
// in flight. The iterator must surface the causal transient error (not hang,
// not report a clean end of stream), Close must return without blocking, and
// a fabric endpoint wrapping the client must be marked unhealthy: the death
// counts against its health and breaker, follow-up stream opens classify as
// replica exhaustion, and by the fabric's failure threshold its breaker is
// open.
func TestSelectStreamServerDeath(t *testing.T) {
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 11, NumSources: 1, TuplesPerSource: 900, Universe: 700,
		Selectivity: []float64{0.6},
	})
	if err != nil {
		t.Fatalf("Synth: %v", err)
	}
	bs := &blockingSource{Source: sc.Sources[0], entered: make(chan struct{})}
	srv, err := ServeConfig(bs, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })

	ep := fabric.NewEndpoint(cli, 1)
	logical, err := fabric.NewLogical("L", []*fabric.Endpoint{ep}, fabric.Options{NoSpeculation: true})
	if err != nil {
		srv.Close()
		t.Fatalf("NewLogical: %v", err)
	}

	ctx := context.Background()
	it, err := logical.SelectStream(ctx, cond.MustParse("A1 < 600"), 16)
	if err != nil {
		srv.Close()
		t.Fatalf("SelectStream: %v", err)
	}

	// The server is provably mid-dispatch: the blocking source has the
	// request. Kill it under the stream.
	select {
	case <-bs.entered:
	case <-time.After(10 * time.Second):
		srv.Close()
		t.Fatal("server never started dispatching the streamed selection")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}

	batch, err := it.Next(ctx)
	if err == nil {
		t.Fatalf("Next after server death = (%v, nil), want the causal error", batch)
	}
	if batch != nil {
		t.Fatalf("Next returned items %v alongside the death error", batch)
	}
	if !source.IsTransient(err) {
		t.Fatalf("mid-stream death error %v is not transient — failover machinery would not engage", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-stream death misclassified as the consumer's own cancellation: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after server death: %v", err)
	}

	// The mid-stream death is the endpoint's first consecutive failure: the
	// fabric has marked it unhealthy.
	if fails := logical.Scorecards()[0].ConsecFails; fails != 1 {
		t.Fatalf("endpoint has %d consecutive failures after the mid-stream death, want 1", fails)
	}

	// New stream attempts try the dead endpoint (the breaker gates preference,
	// not correctness) and must classify honestly as exhaustion. Each is one
	// more consecutive failure, so within the fabric's threshold (3) the
	// breaker opens.
	for i := 0; ep.BreakerState() != fabric.BreakerOpen; i++ {
		if i == 3 {
			t.Fatalf("endpoint breaker = %v after the mid-stream death and %d failed opens, want open", ep.BreakerState(), i)
		}
		if _, err := logical.SelectStream(ctx, cond.MustParse("A1 < 600"), 16); !errors.Is(err, fabric.ErrExhausted) {
			t.Fatalf("stream open against the dead roster = %v, want ErrExhausted", err)
		}
	}
	if logical.Alive() {
		t.Fatal("logical source still reports alive with its only endpoint's breaker open")
	}
}
