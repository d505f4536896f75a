package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"fusionq/internal/exec"
	"fusionq/internal/netsim"
	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

func init() {
	register(Experiment{ID: "E8", Title: "Two-phase processing vs fetching full records up front (Section 1)", Run: runE8})
	register(Experiment{ID: "E9", Title: "Estimated vs measured execution cost; parallel response time (Section 6)", Run: runE9})
	register(Experiment{ID: "E10", Title: "Total-work vs response-time objectives (Section 6 future work)", Run: runE10})
	register(Experiment{ID: "E11", Title: "SJA as a heuristic under condition dependence (Section 1)", Run: runE11})
	register(Experiment{ID: "E13", Title: "Beyond two-phase: combined record retrieval (Section 6 future work)", Run: runE13})
	register(Experiment{ID: "E15", Title: "Mid-query adaptive re-optimization vs static plans (extension)", Run: runE15})
}

// measuredSetup materializes a scenario on a simulated network and builds
// the optimization problem with link-derived profiles, so estimated costs
// are in simulated seconds directly comparable to measured ones.
type measuredSetup struct {
	scenario *workload.Scenario
	sources  []source.Source
	network  *netsim.Network
	problem  *optimizer.Problem
}

func newMeasured(ctx context.Context, cfg workload.SynthConfig, link netsim.Link) (*measuredSetup, error) {
	sc, err := workload.Synth(cfg)
	if err != nil {
		return nil, err
	}
	network := netsim.NewNetwork(cfg.Seed + 1)
	srcs := make([]source.Source, len(sc.Sources))
	profiles := make([]stats.SourceProfile, len(sc.Sources))
	for j, raw := range sc.Sources {
		network.SetLink(raw.Name(), link)
		srcs[j] = source.Instrument(raw, network)
		// Items are the 8-byte "ID%06d" strings.
		profiles[j] = stats.ProfileFromLink(raw.Name(), link, 8, stats.SupportOf(raw.Caps()))
	}
	table, err := stats.BuildFromSources(ctx, sc.Conds, srcs, profiles)
	if err != nil {
		return nil, err
	}
	network.Reset()
	pr := &optimizer.Problem{Conds: sc.Conds, Sources: sc.SourceNames(), Table: table}
	return &measuredSetup{scenario: sc, sources: srcs, network: network, problem: pr}, nil
}

// runE8 compares the motivating "two-phase" pipeline of Section 1 against a
// one-phase strategy that ships full matching records for every condition.
// The record width is swept: the wider the record, the more the two-phase
// split saves, because full records travel only for the final answer.
func runE8(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E8", Title: "bytes moved, one-phase (full records per condition) vs two-phase (items, then answer records)",
		Columns: []string{"payload B", "answers", "one-phase bytes", "two-phase bytes", "one/two"},
	}
	link := netsim.DefaultLink()
	for _, payload := range []int{0, 100, 1000} {
		ms, err := newMeasured(ctx, workload.SynthConfig{
			Seed: 8, NumSources: 4, TuplesPerSource: 400, Universe: 300,
			Selectivity:  []float64{0.15, 0.3},
			PayloadBytes: payload,
		}, link)
		if err != nil {
			return nil, err
		}

		// One-phase: every condition's matching records are fetched in
		// full from every source (select the items, fetch their records).
		ms.network.Reset()
		for _, c := range ms.scenario.Conds {
			for _, src := range ms.sources {
				items, err := src.Select(ctx, c)
				if err != nil {
					return nil, err
				}
				if _, err := src.Fetch(ctx, items); err != nil {
					return nil, err
				}
			}
		}
		onePhase := ms.network.Stats().TotalBytes

		// Two-phase: run the SJA+ plan on items only, then fetch records
		// for the answer set.
		ms.network.Reset()
		res, err := optimizer.SJAPlus(ms.problem)
		if err != nil {
			return nil, err
		}
		ex := &exec.Executor{Sources: ms.sources, Network: ms.network}
		run, err := ex.Run(ctx, res.Plan)
		if err != nil {
			return nil, err
		}
		if _, err := exec.FetchAnswer(ctx, run.Answer, ms.sources); err != nil {
			return nil, err
		}
		twoPhase := ms.network.Stats().TotalBytes

		t.AddRow(payload, run.Answer.Len(), onePhase, twoPhase, float64(onePhase)/float64(twoPhase))
	}
	t.Notes = append(t.Notes, "two-phase wins grow with record width: full records travel only for the answer entities (Section 1)")
	return t, nil
}

// runE9 validates the cost model end to end: the optimizer's estimate (in
// simulated seconds, profiles derived from the links) must track the
// measured total work of executing the plan on the simulated network. Each
// plan runs once: its total work is the "seq" response time, what the run
// takes one exchange after another, and its overlapped rounds' critical path
// the "par" one.
func runE9(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E9", Title: "estimated cost vs measured simulated time; n=6, m=3",
		Columns: []string{"algorithm", "estimate s", "measured s", "est/meas", "seq response s", "par response s", "queries"},
	}
	link := netsim.Link{Latency: 30 * time.Millisecond, BytesPerSec: 64 << 10, RequestOverhead: 15 * time.Millisecond}
	algos := []struct {
		name string
		fn   func(*optimizer.Problem) (optimizer.Result, error)
	}{
		{"FILTER", optimizer.Filter},
		{"SJ", optimizer.SJ},
		{"SJA", optimizer.SJA},
		{"SJA+", optimizer.SJAPlus},
	}
	for _, algo := range algos {
		ms, err := newMeasured(ctx, workload.SynthConfig{
			Seed: 9, NumSources: 6, TuplesPerSource: 800, Universe: 500,
			Selectivity: []float64{0.03, 0.4, 0.6},
		}, link)
		if err != nil {
			return nil, err
		}
		res, err := algo.fn(ms.problem)
		if err != nil {
			return nil, err
		}
		ms.network.Reset()
		run, err := (&exec.Executor{Sources: ms.sources, Network: ms.network}).Run(ctx, res.Plan)
		if err != nil {
			return nil, err
		}
		if run.ResponseTime >= run.TotalWork {
			return nil, fmt.Errorf("E9: %s: response time %v not below total work %v", algo.name, run.ResponseTime, run.TotalWork)
		}
		// One exchange after another, the run would take its total work.
		measured := run.TotalWork.Seconds()
		ratio := res.Cost / measured
		t.AddRow(algo.name, res.Cost, measured, ratio,
			measured, run.ResponseTime.Seconds(), run.SourceQueries)
	}
	t.Notes = append(t.Notes,
		"estimates use link-derived profiles, so est/meas ≈ 1 up to cardinality-estimation error",
		"parallel mode leaves total work unchanged and shrinks response time to the per-round critical path")
	return t, nil
}

// runE10 contrasts the two objectives of Section 6: SJA minimizes total
// work; ResponseTimeSJA minimizes the parallel-execution critical path.
// With per-source heterogeneity in both link quality and condition match
// counts, the objectives rank condition orderings differently: the
// response-time plan accepts more total work to keep the slowest source off
// the critical path.
func runE10(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E10", Title: "objective trade-off; n=6, m=3, heterogeneous links and per-source cardinalities",
		Columns: []string{"optimizer", "ordering", "est response s", "est total work s", "RT saving", "work overhead"},
	}
	// A fixed heterogeneous instance (found by seeded search): per-source
	// link profiles AND per-(condition, source) match counts both vary, so
	// the two objectives rank condition orderings differently.
	profiles := []stats.SourceProfile{
		{Name: "R1", PerQuery: 0.439057, PerItemSent: 0.003097, PerItemRecv: 0.002256, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
		{Name: "R2", PerQuery: 0.488180, PerItemSent: 0.000241, PerItemRecv: 0.000653, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
		{Name: "R3", PerQuery: 0.124827, PerItemSent: 0.001048, PerItemRecv: 0.002806, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
		{Name: "R4", PerQuery: 0.465279, PerItemSent: 0.002246, PerItemRecv: 0.003870, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
		{Name: "R5", PerQuery: 0.297606, PerItemSent: 0.001699, PerItemRecv: 0.001538, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
		{Name: "R6", PerQuery: 0.474606, PerItemSent: 0.002162, PerItemRecv: 0.003392, PerByteLoad: 0.00001, Support: stats.SemijoinNative},
	}
	cards := [3][6]float64{
		{663.3, 796.9, 624.0, 444.6, 731.4, 395.2},
		{103.3, 93.9, 268.9, 79.4, 166.6, 123.6},
		{230.6, 737.5, 892.7, 91.4, 208.6, 995.5},
	}
	n := len(profiles)
	sts := make([]stats.SourceStats, n)
	names := make([]string, n)
	for j := 0; j < n; j++ {
		names[j] = profiles[j].Name
		cc := make([]float64, 3)
		for i := range cc {
			cc[i] = cards[i][j]
		}
		sts[j] = stats.SourceStats{Name: names[j], Tuples: 1000, DistinctItems: 1000, Bytes: 40000, CondCard: cc}
	}
	table, err := stats.Build(workload.MustConds(3), sts, profiles)
	if err != nil {
		return nil, err
	}
	pr := &optimizer.Problem{Conds: workload.MustConds(3), Sources: names, Table: table}

	sja, err := optimizer.SJA(pr)
	if err != nil {
		return nil, err
	}
	rtRes, err := optimizer.ResponseTimeSJA(pr)
	if err != nil {
		return nil, err
	}
	rtOfSJA, err := plan.EstimateResponseTime(sja.Plan, pr.Table)
	if err != nil {
		return nil, err
	}
	workOfRT, err := plan.EstimateCost(rtRes.Plan, pr.Table)
	if err != nil {
		return nil, err
	}
	if rtRes.Cost > rtOfSJA+1e-9 {
		return nil, fmt.Errorf("E10: RT optimizer response %v exceeds SJA plan response %v", rtRes.Cost, rtOfSJA)
	}
	if sja.Cost > workOfRT.Cost+1e-9 {
		return nil, fmt.Errorf("E10: SJA total work %v exceeds RT plan work %v", sja.Cost, workOfRT.Cost)
	}
	t.AddRow("SJA (total work)", fmt.Sprintf("%v", sja.Sketch.Ordering), rtOfSJA, sja.Cost, "-", "-")
	t.AddRow("RT-SJA (response time)", fmt.Sprintf("%v", rtRes.Sketch.Ordering), rtRes.Cost, workOfRT.Cost,
		fmt.Sprintf("%.1f%%", (rtOfSJA-rtRes.Cost)/rtOfSJA*100),
		fmt.Sprintf("+%.1f%%", (workOfRT.Cost-sja.Cost)/sja.Cost*100))
	t.Notes = append(t.Notes,
		"each optimizer wins on its own objective (asserted); the orderings differ",
		"the response-time plan trades extra total work for a shorter per-round critical path")
	return t, nil
}

// runE11 probes the paper's independence caveat: the best semijoin-adaptive
// plan is provably the best simple plan only when conditions are
// independent; under dependence it "provides an excellent heuristic"
// (Section 1, point 3). We correlate the condition attributes in the data,
// optimize with (independence-assuming) statistics, execute every condition
// ordering's SJA plan on the simulated network, and report the regret of
// SJA's estimate-based pick against the measured best.
func runE11(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E11", Title: "SJA under condition dependence: measured regret of the estimate-based ordering; n=5, m=3",
		Columns: []string{"correlation", "SJA pick s", "measured best s", "measured worst s", "regret", "answers"},
	}
	// A narrow link makes item transfers the dominant cost, so method
	// choices actually move with the running set's size. c1 and c2 share
	// their threshold: under correlation an item passing c1 almost always
	// passes c2, so the true |X2| far exceeds the independence estimate.
	link := netsim.Link{Latency: 10 * time.Millisecond, BytesPerSec: 2048, RequestOverhead: 5 * time.Millisecond}
	for _, rho := range []float64{0, 0.5, 0.9} {
		ms, err := newMeasured(ctx, workload.SynthConfig{
			Seed: 13, NumSources: 5, TuplesPerSource: 700, Universe: 450,
			Selectivity: []float64{0.06, 0.06, 0.15},
			Correlation: rho,
		}, link)
		if err != nil {
			return nil, err
		}

		measure := func(res optimizer.Result) (float64, set.Set, error) {
			ms.network.Reset()
			ex := &exec.Executor{Sources: ms.sources, Network: ms.network}
			run, err := ex.Run(ctx, res.Plan)
			if err != nil {
				return 0, set.Set{}, err
			}
			return run.TotalWork.Seconds(), run.Answer, nil
		}

		sja, err := optimizer.SJA(ms.problem)
		if err != nil {
			return nil, err
		}
		picked, answer, err := measure(sja)
		if err != nil {
			return nil, err
		}

		best, worst := math.Inf(1), 0.0
		m := len(ms.problem.Conds)
		ords := permuteAll(m)
		for _, ord := range ords {
			res, err := optimizer.SJAWithOrdering(ms.problem, ord)
			if err != nil {
				return nil, err
			}
			cost, ans, err := measure(res)
			if err != nil {
				return nil, err
			}
			if !ans.Equal(answer) {
				return nil, fmt.Errorf("E11: ordering %v changed the answer", ord)
			}
			if cost < best {
				best = cost
			}
			if cost > worst {
				worst = cost
			}
		}
		t.AddRow(rho, picked, best, worst, picked/best, answer.Len())
	}
	t.Notes = append(t.Notes,
		"at correlation 0 the estimates are accurate and SJA's pick is (near-)best",
		"under dependence the independence-based estimates mislead, but the pick stays far from the worst ordering — the paper's 'excellent heuristic' claim")
	return t, nil
}

// permuteAll materializes every permutation of 0..m-1.
func permuteAll(m int) [][]int {
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			nr := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(prefix, rest[i]), nr)
		}
	}
	base := make([]int, m)
	for i := range base {
		base[i] = i
	}
	rec(nil, base)
	return out
}

// runE13 quantifies the Section 6 "beyond two-phase" extension, a plan's
// plan.FinalRecords schedule: the final round's queries return full records,
// so a separate fetch round is only needed for answer items those queries
// did not cover. Two-phase is the same plan under plan.FetchRecords. Two topologies are measured: "dispersed" sources with largely
// disjoint records (where an answer item's records live at sources its
// final-round match did not come from, so fetches remain) and "mirrored"
// sources replicating the same data (where the final round covers the
// whole answer at every source and the fetch round disappears).
func runE13(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E13", Title: "two-phase vs combined record retrieval; n=4, payload 400B, latency-dominated link (300ms RTT, 1MB/s)",
		Columns: []string{"topology", "sel(c2)", "answers", "2p bytes", "2p msgs", "2p time s", "comb bytes", "comb msgs", "comb time s", "2p/comb time"},
	}
	// A latency-dominated path: round trips are expensive, bytes cheap —
	// the regime where merging the fetch round into the final round pays.
	link := netsim.Link{Latency: 150 * time.Millisecond, BytesPerSec: 1 << 20, RequestOverhead: 50 * time.Millisecond}
	for _, topology := range []string{"dispersed", "mirrored"} {
		for _, sel2 := range []float64{0.1, 0.3, 0.6} {
			cfg := workload.SynthConfig{
				Seed: 14, NumSources: 4, TuplesPerSource: 350, Universe: 280,
				Selectivity:  []float64{0.2, sel2},
				PayloadBytes: 400,
			}
			build := func() (*measuredSetup, error) {
				if topology == "dispersed" {
					return newMeasured(ctx, cfg, link)
				}
				return newMirrored(ctx, cfg, link)
			}

			schedule := func(records plan.Records) (*exec.Result, netsim.Stats, error) {
				ms, err := build()
				if err != nil {
					return nil, netsim.Stats{}, err
				}
				res, err := optimizer.SJA(ms.problem)
				if err != nil {
					return nil, netsim.Stats{}, err
				}
				p := *res.Plan
				p.Records = records
				ms.network.Reset()
				run, err := (&exec.Executor{Sources: ms.sources, Network: ms.network}).Run(ctx, &p)
				return run, ms.network.Stats(), err
			}
			run, twoStats, err := schedule(plan.FetchRecords)
			if err != nil {
				return nil, err
			}
			run2, comStats, err := schedule(plan.FinalRecords)
			if err != nil {
				return nil, err
			}
			if !run2.Answer.Equal(run.Answer) || run2.Records.Len() != run.Records.Len() {
				return nil, fmt.Errorf("E13: strategies disagree (answers %v vs %v, records %d vs %d)",
					run.Answer.Len(), run2.Answer.Len(), run.Records.Len(), run2.Records.Len())
			}
			t.AddRow(topology, sel2, run.Answer.Len(),
				twoStats.TotalBytes, twoStats.Messages, twoStats.TotalTime.Seconds(),
				comStats.TotalBytes, comStats.Messages, comStats.TotalTime.Seconds(),
				twoStats.TotalTime.Seconds()/comStats.TotalTime.Seconds())
		}
	}
	t.Notes = append(t.Notes,
		"combined mode trades bytes (it ships the final round's superset of records) for round trips (no dedicated fetch round)",
		"dispersed records: per-source coverage is partial, fetches remain, and two-phase stays ahead",
		"mirrored sources: the fetch round disappears entirely and combined wins wall-clock on latency-dominated links despite moving more bytes")
	return t, nil
}

// newMirrored builds a scenario in which every source serves the same
// relation (full replication), instrumented like newMeasured.
func newMirrored(ctx context.Context, cfg workload.SynthConfig, link netsim.Link) (*measuredSetup, error) {
	one := cfg
	one.NumSources = 1
	sc, err := workload.Synth(one)
	if err != nil {
		return nil, err
	}
	network := netsim.NewNetwork(cfg.Seed + 1)
	srcs := make([]source.Source, cfg.NumSources)
	profiles := make([]stats.SourceProfile, cfg.NumSources)
	names := make([]string, cfg.NumSources)
	caps := source.Capabilities{NativeSemijoin: true, PassedBindings: true}
	for j := 0; j < cfg.NumSources; j++ {
		names[j] = fmt.Sprintf("R%d", j+1)
		raw := source.NewWrapper(names[j], source.NewRowBackend(sc.Relations[0]), caps)
		network.SetLink(names[j], link)
		srcs[j] = source.Instrument(raw, network)
		profiles[j] = stats.ProfileFromLink(names[j], link, 8, stats.SemijoinNative)
	}
	table, err := stats.BuildFromSources(ctx, sc.Conds, srcs, profiles)
	if err != nil {
		return nil, err
	}
	network.Reset()
	mirror := &workload.Scenario{Schema: sc.Schema, Conds: sc.Conds, Sources: srcs}
	return &measuredSetup{
		scenario: mirror, sources: srcs, network: network,
		problem: &optimizer.Problem{Conds: sc.Conds, Sources: names, Table: table},
	}, nil
}

// runE15 measures mid-query adaptive re-optimization (an optimizer.Adaptive
// plan, whose rounds the executor decides) against the static SJA pick, in the condition-dependence regime of E11
// where the optimizer's independence-based estimates mislead. Adaptivity
// decides each round against the measured running set, so its execution
// follows the data rather than the estimates.
func runE15(ctx context.Context) (*Table, error) {
	t := &Table{
		ID: "E15", Title: "static SJA vs adaptive execution under condition dependence; n=5, m=3 (measured)",
		Columns: []string{"correlation", "static pick s", "static best s", "adaptive s", "adaptive/static-pick", "answers"},
	}
	// A narrow link makes item transfers the dominant cost, so method
	// choices actually move with the running set's size. c1 and c2 share
	// their threshold: under correlation an item passing c1 almost always
	// passes c2, so the true |X2| far exceeds the independence estimate.
	link := netsim.Link{Latency: 10 * time.Millisecond, BytesPerSec: 2048, RequestOverhead: 5 * time.Millisecond}
	for _, rho := range []float64{0, 0.5, 0.9} {
		ms, err := newMeasured(ctx, workload.SynthConfig{
			Seed: 13, NumSources: 5, TuplesPerSource: 700, Universe: 450,
			Selectivity: []float64{0.06, 0.06, 0.15},
			Correlation: rho,
		}, link)
		if err != nil {
			return nil, err
		}

		measure := func(res optimizer.Result) (float64, set.Set, error) {
			ms.network.Reset()
			ex := &exec.Executor{Sources: ms.sources, Network: ms.network}
			run, err := ex.Run(ctx, res.Plan)
			if err != nil {
				return 0, set.Set{}, err
			}
			return run.TotalWork.Seconds(), run.Answer, nil
		}

		sja, err := optimizer.SJA(ms.problem)
		if err != nil {
			return nil, err
		}
		staticPick, answer, err := measure(sja)
		if err != nil {
			return nil, err
		}
		staticBest := math.Inf(1)
		for _, ord := range permuteAll(len(ms.problem.Conds)) {
			res, err := optimizer.SJAWithOrdering(ms.problem, ord)
			if err != nil {
				return nil, err
			}
			cost, _, err := measure(res)
			if err != nil {
				return nil, err
			}
			if cost < staticBest {
				staticBest = cost
			}
		}

		adaptivePlan, err := optimizer.Adaptive(ms.problem)
		if err != nil {
			return nil, err
		}
		adaptive, adaptiveAnswer, err := measure(adaptivePlan)
		if err != nil {
			return nil, err
		}
		if !adaptiveAnswer.Equal(answer) {
			return nil, fmt.Errorf("E15: adaptive answer differs at rho=%v", rho)
		}
		t.AddRow(rho, staticPick, staticBest, adaptive, adaptive/staticPick, answer.Len())
	}
	t.Notes = append(t.Notes,
		"adaptive execution tracks the measured best static ordering without searching orderings at run time",
		"its edge over the static pick grows as correlation degrades the optimizer's estimates")
	return t, nil
}
