package stats

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// calibrationScenario builds a synthetic source with enough data for the
// byte-dependent term to be observable, instrumented on a jitter-free link.
func calibrationScenario(t *testing.T) (source.Source, *netsim.Network, []cond.Cond, netsim.Link) {
	t.Helper()
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 21, NumSources: 1, TuplesPerSource: 4000, Universe: 4000,
		Selectivity: []float64{0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.Link{Latency: 20 * time.Millisecond, BytesPerSec: 32 << 10, RequestOverhead: 10 * time.Millisecond}
	network := netsim.NewNetwork(5)
	network.SetLink(sc.Sources[0].Name(), link)
	src := source.Instrument(sc.Sources[0], network)
	probes := []cond.Cond{
		cond.MustParse("A1 < 10"),
		cond.MustParse("A1 < 50"),
		cond.MustParse("A1 < 200"),
		cond.MustParse("A1 < 500"),
		cond.MustParse("A1 < 900"),
	}
	return src, network, probes, link
}

func TestCalibrateRecoversLinkParameters(t *testing.T) {
	src, _, probes, link := calibrationScenario(t)
	got, err := Calibrate(context.Background(), src, probes)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	want := ProfileFromLink(src.Name(), link, 8, SemijoinNative)
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(b, 1e-12) }
	if relErr(got.PerQuery, want.PerQuery) > 0.15 {
		t.Errorf("PerQuery = %v, want ≈%v", got.PerQuery, want.PerQuery)
	}
	if relErr(got.PerItemRecv, want.PerItemRecv) > 0.15 {
		t.Errorf("PerItemRecv = %v, want ≈%v", got.PerItemRecv, want.PerItemRecv)
	}
	if got.Support != SemijoinNative {
		t.Errorf("Support = %v", got.Support)
	}
	if got.Name != src.Name() {
		t.Errorf("Name = %q", got.Name)
	}
}

func TestCalibratedProfilePredictsCosts(t *testing.T) {
	src, network, probes, _ := calibrationScenario(t)
	profile, err := Calibrate(context.Background(), src, probes)
	if err != nil {
		t.Fatal(err)
	}
	// Predict the cost of a fresh query and compare with its measured
	// simulated time.
	network.Reset()
	c := cond.MustParse("A1 < 700")
	items, err := src.Select(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	measured := network.Stats().TotalTime.Seconds()
	predicted := profile.SelectCost(float64(items.Len()))
	if math.Abs(predicted-measured)/measured > 0.1 {
		t.Fatalf("predicted %v, measured %v", predicted, measured)
	}
}

func TestCalibrateIdenticalPayloads(t *testing.T) {
	// Probes with identical (empty) results leave the slope unidentifiable;
	// calibration must degrade gracefully to a pure fixed cost.
	sc, err := workload.Synth(workload.SynthConfig{
		Seed: 3, NumSources: 1, TuplesPerSource: 10, Universe: 10,
		Selectivity: []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	network := netsim.NewNetwork(1)
	network.SetLink(sc.Sources[0].Name(), netsim.Link{Latency: 10 * time.Millisecond})
	src := source.Instrument(sc.Sources[0], network)
	probes := []cond.Cond{
		cond.MustParse("A1 < -5"), // empty
		cond.MustParse("A1 < -1"), // empty
	}
	got, err := Calibrate(context.Background(), src, probes)
	if err != nil {
		t.Fatal(err)
	}
	if got.PerQuery <= 0 {
		t.Fatalf("PerQuery = %v, want positive", got.PerQuery)
	}
}

func TestCalibrateErrors(t *testing.T) {
	src, _, probes, _ := calibrationScenario(t)
	bare := source.NewWrapper("bare", source.NewRowBackend(relation.NewRelation(src.Schema())), src.Caps())
	if _, err := Calibrate(context.Background(), bare, probes); err == nil {
		t.Error("a source no network charges should fail")
	}
	if _, err := Calibrate(context.Background(), src, probes[:1]); err == nil {
		t.Error("single probe should fail")
	}
	bad := []cond.Cond{cond.MustParse("Zz = 1"), cond.MustParse("Zz = 2")}
	if _, err := Calibrate(context.Background(), src, bad); err == nil {
		t.Error("invalid probe conditions should fail")
	}
}

// resetAfterFirst is a source whose first Select hands control to another
// goroutine — a concurrent query's planning phase — and waits for it.
type resetAfterFirst struct {
	source.Source
	once       sync.Once
	selected   chan<- struct{}
	resetDone  <-chan struct{}
	selections int
}

func (s *resetAfterFirst) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	out, err := s.Source.Select(ctx, c)
	s.selections++
	s.once.Do(func() {
		s.selected <- struct{}{}
		<-s.resetDone
	})
	return out, err
}

// TestCalibrateSurvivesConcurrentReset resets the shared network after
// Calibrate's first probe, at a moment when the log is shorter than it was
// when calibration began. The fit is over Calibrate's own ledger, so it is
// the fit of an undisturbed calibration. Run with -race.
func TestCalibrateSurvivesConcurrentReset(t *testing.T) {
	inner, network, probes, _ := calibrationScenario(t)
	want, err := Calibrate(context.Background(), inner, probes)
	if err != nil {
		t.Fatal(err)
	}
	selected, resetDone := make(chan struct{}), make(chan struct{})
	src := &resetAfterFirst{Source: inner, selected: selected, resetDone: resetDone}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-selected
		network.Reset()
		close(resetDone)
	}()
	got, err := Calibrate(context.Background(), src, probes)
	wg.Wait()
	if err != nil {
		t.Fatalf("Calibrate across a Reset: %v", err)
	}
	if got != want {
		t.Fatalf("profile across a Reset = %+v, undisturbed %+v", got, want)
	}
	if src.selections != len(probes) {
		t.Fatalf("%d probes issued, want %d", src.selections, len(probes))
	}
	if left := len(network.Log()); left != len(probes)-1 {
		t.Fatalf("%d exchanges in the log after the reset, want the %d later probes", left, len(probes)-1)
	}
}
