package source

import (
	"context"
	"fmt"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/racetest"
	"fusionq/internal/relation"
)

// spanBlockShare bounds a traced exchange's share of its trace's blocks: a
// span block holds at least 16 spans, and an attribute block of 128 holds
// the room of 32 exchange spans (their source and simulated time).
const spanBlockShare = 1.0/16 + 4.0/128

// TestInstrumentedExchangeAllocs: the accounting layer costs a selection
// nothing of its own once warm — admission, the exchange span (its own
// context), the request charge (the condition's text counted, not made),
// the byte counters and histogram (resolved once for the registry), and
// the entry in the ledger the context carries — but the span's share of its
// trace's blocks.
func TestInstrumentedExchangeAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	rel := relation.NewRelation(propSchema)
	for i := 0; i < 64; i++ {
		rel.MustInsert(relation.String(fmt.Sprintf("ID%06d", i)), relation.Int(int64(i%100)), relation.String("x"))
	}
	w := NewWrapper("R", NewRowBackend(rel), Capabilities{})
	src := Instrument(w, netsim.NewNetwork(1))
	c := cond.MustParse("A < 1 AND B = 'x'")
	bg := context.Background()
	tr := obs.NewTrace()
	ctx := obs.With(bg, &obs.Obs{QueryID: "q-alloc", Trace: tr, Metrics: obs.NewRegistry()})
	var ledger netsim.Ledger
	ctx = netsim.WithLedger(ctx, &ledger, 0)
	sel := func(ctx context.Context, s Source) {
		if _, err := s.Select(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the network's log, the ledger and the trace past the sizes the
	// measured runs grow them through.
	for i := 0; i < 300; i++ {
		sel(ctx, src)
	}
	bare := testing.AllocsPerRun(200, func() { sel(bg, w) })
	spans := tr.Len()
	traced := testing.AllocsPerRun(200, func() { sel(ctx, src) })
	if n := tr.Len() - spans; n != 201 {
		t.Fatalf("%d exchange spans for 201 selections", n)
	}
	if len(ledger.Entries()) != 501 {
		t.Fatalf("%d ledger entries for 501 selections", len(ledger.Entries()))
	}
	t.Logf("%v allocations a selection, %v bare", traced, bare)
	if traced > bare+spanBlockShare {
		t.Fatalf("an instrumented, traced selection allocated %v times, the bare wrapper's %v (+%.3f allowed)", traced, bare, spanBlockShare)
	}
}
