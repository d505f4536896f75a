package fabric

import (
	"context"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// laggy delays Select inside the server's dispatch, so a hedged exchange has
// both legs genuinely in flight over the wire at once.
type laggy struct {
	source.Source
	delay time.Duration
}

func (l laggy) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	timer := time.NewTimer(l.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return set.Set{}, ctx.Err()
	}
	return l.Source.Select(ctx, c)
}

// renamed gives a wire client a distinct endpoint name: every replica
// serves the same relation, so they all report the same source name.
type renamed struct {
	source.Source
	name string
}

func (r renamed) Name() string { return r.name }

// TestHedgedExchangeGraftsFragmentsOnBothLegs is the federation-tracing
// acceptance test: a logical source over two real wire servers runs a hedged
// exchange where the backup wins, and the trace must carry a grafted
// server-side fragment on BOTH legs. The fabric cancels the loser as soon as
// the winner answers, but a wire exchange honours a deadline, not a
// cancellation, once its request is sent: the loser's leg ends with the
// server's reply and its fragment.
func TestHedgedExchangeGraftsFragmentsOnBothLegs(t *testing.T) {
	sc := workload.DMV()
	dial := func(name string, delay time.Duration) source.Source {
		srv, err := wire.ServeConfig(laggy{Source: sc.Sources[0], delay: delay}, "127.0.0.1:0",
			wire.Config{Logf: func(string, ...interface{}) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cli, err := wire.DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cli.Close() })
		return renamed{Source: cli, name: name}
	}
	slow := dial("R1a", 120*time.Millisecond)
	fast := dial("R1b", 5*time.Millisecond)
	eps := []*Endpoint{NewEndpoint(slow, 2), NewEndpoint(fast, 2)}
	l, err := NewLogical("R1", eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmRing(l, 2*time.Millisecond, hedgeMinSamples)

	tr := obs.NewTrace()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: "q-hedge-frag", Trace: tr})
	// Force the slow endpoint as primary so the hedge fires deterministically
	// and the backup wins while the primary is still working.
	reply, err := attempt(ctx, l, l.eps[0], map[*Endpoint]bool{}, "sq",
		source.Call{Op: source.OpSelect, Cond: cond.MustParse("V = 'dui'")})
	if err != nil {
		t.Fatal(err)
	}
	if out := reply.Items; out.Len() == 0 {
		t.Fatalf("hedged exchange answered %v", out)
	}
	if st := l.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want one hedge and one backup win", st)
	}

	spans := tr.Export()
	children := map[int64][]obs.SpanData{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	legs := map[string]obs.SpanData{} // role -> attempt span
	for _, sp := range spans {
		if sp.Kind == obs.KindAttempt {
			legs[sp.Attrs["role"]] = sp
		}
	}
	if len(legs) != 2 || legs["hedge"].Attrs["outcome"] != "won" || legs["primary"].Attrs["outcome"] == "won" {
		t.Fatalf("attempt spans = %+v, want the hedge that won and the primary", legs)
	}
	for _, role := range []string{"hedge", "primary"} {
		leg := legs[role]
		if leg.Attrs["endpoint"] == "" {
			t.Fatalf("%s leg lacks its endpoint attr: %+v", role, leg)
		}
		var wireSp *obs.SpanData
		for _, kid := range children[leg.ID] {
			if kid.Kind == obs.KindWire {
				k := kid
				wireSp = &k
				break
			}
		}
		if wireSp == nil || !wireSp.Finished {
			t.Fatalf("%s leg has no finished wire span: %+v", role, children[leg.ID])
		}
		var frag *obs.SpanData
		for _, kid := range children[wireSp.ID] {
			if kid.Kind == obs.KindServer {
				k := kid
				frag = &k
				break
			}
		}
		if frag == nil || !frag.Finished {
			t.Fatalf("%s leg's wire span carries no grafted server fragment: %+v", role, children[wireSp.ID])
		}
		// Skew normalization holds per leg: the fragment nests inside its
		// wire envelope.
		wEnd := wireSp.Start.Add(time.Duration(wireSp.DurationUS) * time.Microsecond)
		fEnd := frag.Start.Add(time.Duration(frag.DurationUS) * time.Microsecond)
		if frag.Start.Before(wireSp.Start) || fEnd.After(wEnd) {
			t.Fatalf("%s leg fragment [%v +%dus] escapes wire envelope [%v +%dus]",
				role, frag.Start, frag.DurationUS, wireSp.Start, wireSp.DurationUS)
		}
	}
	// The loser spent its server delay working; its fragment must say so —
	// this is what distinguishes the loser's own fragment from a placeholder.
	lostKids := children[legs["primary"].ID]
	var lostWire obs.SpanData
	for _, kid := range lostKids {
		if kid.Kind == obs.KindWire {
			lostWire = kid
		}
	}
	for _, kid := range children[lostWire.ID] {
		if kid.Kind == obs.KindServer && kid.DurationUS < (100*time.Millisecond).Microseconds() {
			t.Fatalf("loser fragment reports %dus of server work, want >= the 120ms injected delay", kid.DurationUS)
		}
	}
}

// TestEndpointMetricCardinalityBoundedByRoster is the cardinality guard:
// after a workload with failovers across a replicated logical source, the
// per-endpoint metric families may only carry label values from the
// registered roster — a stray label here would mean unbounded series growth
// in production.
func TestEndpointMetricCardinalityBoundedByRoster(t *testing.T) {
	bad, good := newStub("R1a"), newStub("R1b")
	bad.setFail(source.ErrTransient)
	l := mustLogical(t, "R1", Options{NoSpeculation: true}, bad, good)

	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), &obs.Obs{Metrics: reg})
	for i := 0; i < 10; i++ {
		if _, err := l.Select(ctx, cond.True{}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}

	roster := map[string]bool{"R1a": true, "R1b": true}
	vals := reg.LabelValues(obs.MBreakerState, "source")
	if len(vals) == 0 {
		t.Fatal("no per-endpoint breaker series charged; the guard is vacuous")
	}
	for _, v := range vals {
		if !roster[v] {
			t.Fatalf("%s carries endpoint label %q outside the roster %v", obs.MBreakerState, v, roster)
		}
	}
	// Logical-level families are bounded by the logical source names.
	for _, fam := range []string{obs.MFailovers, obs.MHedges} {
		for _, v := range reg.LabelValues(fam, "source") {
			if v != "R1" {
				t.Fatalf("%s carries source label %q, want only the logical name R1", fam, v)
			}
		}
	}
	if len(reg.LabelValues(obs.MFailovers, "source")) == 0 {
		t.Fatal("no failover series charged despite a dead replica; the guard is vacuous")
	}
}
