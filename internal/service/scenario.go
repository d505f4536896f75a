package service

import (
	"fmt"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/workload"
)

// DeployConfig describes a self-contained simulated deployment: a scenario,
// a simulated network with per-source links, and a mediator wired over
// both. cmd/fqd and the service benchmark both build their worlds through
// this one path so "the thing fqd serves" and "the thing the benchmark
// measures" cannot drift apart.
type DeployConfig struct {
	// Scenario selects the data set: "dmv" (the paper's Figure 1 example)
	// or "synth" (parameterized synthetic overlap).
	Scenario string
	// Seed drives both the synthetic data and the simulated network.
	Seed int64
	// Sources, Tuples, Universe and Selectivity parameterize the synth
	// scenario (ignored for dmv). Zero values take the defaults below.
	Sources  int
	Tuples   int
	Universe int
	// Conds is the number of synthetic conditions (selectivity ramps from
	// 0.2 to 0.6); default 3.
	Conds int
	// RealTime, when positive, makes simulated exchanges take wall-clock
	// time at that scale (1.0 = full simulated latency).
	RealTime float64
	// Metrics receives mediator metrics when non-nil.
	Metrics *obs.Registry
}

// Deployment is a built world: the scenario (for reference answers and the
// condition vocabulary) and the mediator serving it.
type Deployment struct {
	Scenario *workload.Scenario
	Mediator *core.Mediator
}

// Build constructs the deployment.
func (cfg DeployConfig) Build() (*Deployment, error) {
	var sc *workload.Scenario
	switch cfg.Scenario {
	case "", "dmv":
		sc = workload.DMV()
	case "synth":
		if cfg.Sources <= 0 {
			cfg.Sources = 4
		}
		if cfg.Tuples <= 0 {
			cfg.Tuples = 80
		}
		if cfg.Universe <= 0 {
			cfg.Universe = 150
		}
		if cfg.Conds <= 0 {
			cfg.Conds = 3
		}
		sel := make([]float64, cfg.Conds)
		for i := range sel {
			sel[i] = 0.2 + 0.4*float64(i)/float64(max(1, cfg.Conds-1))
		}
		var err error
		sc, err = workload.Synth(workload.SynthConfig{
			Seed:            cfg.Seed,
			NumSources:      cfg.Sources,
			TuplesPerSource: cfg.Tuples,
			Universe:        cfg.Universe,
			Selectivity:     sel,
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("service: unknown scenario %q (want dmv or synth)", cfg.Scenario)
	}

	// Source 0's link latency; source j gets base*(1+j/2), so plans have
	// real cost asymmetry to exploit.
	const base = 2 * time.Millisecond
	net := netsim.NewNetwork(cfg.Seed)
	if cfg.RealTime > 0 {
		net.SetRealTime(cfg.RealTime)
	}
	m := core.New(sc.Schema)
	m.SetNetwork(net)
	if cfg.Metrics != nil {
		m.SetMetrics(cfg.Metrics)
	}
	for j, src := range sc.Sources {
		link := netsim.Link{
			Latency:         base + base*time.Duration(j)/2,
			BytesPerSec:     1 << 20,
			RequestOverhead: base / 2,
			MaxConns:        4,
		}
		if err := m.AddSourceLink(src, link); err != nil {
			return nil, err
		}
	}
	return &Deployment{Scenario: sc, Mediator: m}, nil
}
