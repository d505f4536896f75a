package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fusionq/internal/fabric"
	"fusionq/internal/obs"
)

// TestRenderOnceAgainstLiveAdmin drives renderOnce against a real
// obs.ServeAdminConfig listener fed by a populated recorder and a scorecard
// function — the full fqtop path minus the screen loop.
func TestRenderOnceAgainstLiveAdmin(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{})
	// One completed hedged query, one completed error, one still in flight.
	lq := rec.Begin("q-done-1", obs.Text("V = 'dui' AND V = 'sp'"))
	lq.Exchange("R1", "sq", 128)
	lq.Exchange("R2", "sjq", 512)
	rec.End(lq, obs.EndInfo{Items: 3, Hedges: 1})
	lq = rec.Begin("q-err-2", obs.Text("V = 'x'"))
	rec.End(lq, obs.EndInfo{Err: errors.New("replica roster exhausted")})
	inflight := rec.Begin("q-live-3", obs.Text("V = 'y'"))
	inflight.Exchange("R3", "sq", 64)

	reg := obs.NewRegistry()
	adm, err := obs.ServeAdminConfig("127.0.0.1:0", obs.AdminConfig{
		Registry: reg,
		Recorder: rec,
		Scorecards: func() any {
			return []fabric.Scorecard{{
				Logical: "dmv_ca", Endpoint: "dmv_ca_a", Breaker: "closed",
				EWMASeconds: 0.0012, Hedges: 4, HedgeWins: 2,
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = adm.Close() }()

	var buf strings.Builder
	if err := renderOnce(context.Background(), &buf, newFeed(adm.Addr()), 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"LIVE QUERIES (1)", "q-live-3", "R3:1x/64B",
		"ENDPOINTS (1)", "dmv_ca", "dmv_ca_a", "closed",
		"SLOW / INTERESTING TAIL", "q-done-1", "q-err-2", "hedge×1", "error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestRenderOnceEmptyAdmin checks fqtop works against a bare admin listener
// (no recorder, no scorecards) — the fqsource case.
func TestRenderOnceEmptyAdmin(t *testing.T) {
	adm, err := obs.ServeAdminConfig("127.0.0.1:0", obs.AdminConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = adm.Close() }()
	var buf strings.Builder
	if err := renderOnce(context.Background(), &buf, newFeed(adm.Addr()), 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"runtime: heap ", "GC cycles", "goroutines", "LIVE QUERIES (0)", "ENDPOINTS (0)", "SLOW / INTERESTING TAIL (0 of 0 retained)"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}
