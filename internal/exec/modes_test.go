package exec

import (
	"context"
	"testing"
	"time"

	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// runModes are the ways the tests run one plan: rounds over links of one
// connection each ("seq": a source serves its exchanges one after another),
// rounds over the links as the test set them, and the pipeline.
var runModes = []struct {
	name      string
	configure func(*Executor)
}{
	{"seq", func(e *Executor) {
		for _, src := range e.Sources {
			if e.Network != nil {
				linkConns(e.Network, []string{src.Name()}, 1)
			}
		}
	}},
	{"par", func(*Executor) {}},
	{"stream", func(e *Executor) { e.Streaming = true }},
}

// synthOnNetwork materializes a synthetic scenario behind one simulated link
// per source and builds its optimization problem from exact statistics and
// link-derived profiles, so estimates and measured simulated time are in
// the same seconds. The statistics pass is not charged.
func synthOnNetwork(tb testing.TB, cfg workload.SynthConfig, link netsim.Link) (*optimizer.Problem, []source.Source, *netsim.Network) {
	tb.Helper()
	sc, err := workload.Synth(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	network := netsim.NewNetwork(1)
	srcs := make([]source.Source, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, raw := range sc.Sources {
		network.SetLink(raw.Name(), link)
		srcs[j] = source.Instrument(raw, network)
		// Items are the 8-byte "ID%06d" strings.
		profiles[j] = stats.ProfileFromLink(raw.Name(), link, 8, stats.SupportOf(raw.Caps()))
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, srcs, profiles)
	if err != nil {
		tb.Fatal(err)
	}
	network.Reset()
	return &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}, srcs, network
}

// BenchmarkRunModes runs one fixed plan — SJA over the end-to-end
// benchmark's planned-execution shape: 6 native-semijoin sources of 2 000
// tuples over a universe of 4 000, three conditions, netsim attached for
// accounting — under each scheduler: rounds ("par") and the pipeline
// ("stream"). allocs/op is what a step costs the round scheduler beside the
// pipelined one.
func BenchmarkRunModes(b *testing.B) {
	pr, srcs, network := synthOnNetwork(b, workload.SynthConfig{
		Seed: 7, NumSources: 6, TuplesPerSource: 2000, Universe: 4000,
		Selectivity: []float64{0.3, 0.5, 0.7},
	}, netsim.Link{Latency: time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: 100 * time.Microsecond, MaxConns: 2})
	res, err := optimizer.SJA(pr)
	if err != nil {
		b.Fatal(err)
	}
	for _, streaming := range []bool{false, true} {
		name := "par"
		if streaming {
			name = "stream"
		}
		b.Run(name, func(b *testing.B) {
			ex := &Executor{Sources: srcs, Network: network, Streaming: streaming}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := ex.Run(context.Background(), res.Plan)
				if err != nil {
					b.Fatal(err)
				}
				sinkDuration = run.TotalWork
			}
		})
	}
}
