// Command benchmark is the repository's one performance benchmark: a
// CPU-bound, layer-attributed measurement of the fusion-query service as a
// client of cmd/fqd sees it. README.md in this directory explains the
// workloads, the metrics and how to read them; BENCHMARK.json at the root
// of the repository declares them to the driver.
//
//	go run ./benchmark --workload cold-distinct --seed 1 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload it runs
// all five workloads, each in a process of its own.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp says what produced a result, so that two points are comparable.
type stamp struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"goVersion"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"nproc"`
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Traced        bool   `json:"traced"`
	Clients       int    `json:"clients"`
	Rounds        int    `json:"rounds"`
	RoundQueries  int    `json:"roundQueries"`
	WarmQueries   int    `json:"warmQueries"`
	Samples       int    `json:"latencySamples"`
	TracedQueries int    `json:"tracedQueries,omitempty"`
	// Speed is the median over the rounds of the yardstick's time over its
	// nominal time; the end-to-end timings are reported at speed 1.
	Speed float64 `json:"speed"`
	Note  string  `json:"note"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	short    bool
	agree    bool
	manifest bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them, each in its own process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and queries")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the run: a workload's fixed number of rounds is scaled by seconds over the manifest's run_seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.BoolVar(&o.short, "short", false, "one round at a twentieth of the counts (smoke test)")
	flag.BoolVar(&o.agree, "agree", false, "run the whole set twice and compare the two against the bounds")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the code defines it and exit")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(context.Background(), o); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	switch {
	case o.manifest:
		data, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case o.agree:
		return agree(ctx, o)
	case o.workload == "":
		_, err := runAll(ctx, o, os.Stdout)
		return err
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.short {
		w = w.shortened()
	}
	// A run that hangs must still end well inside the driver's limit.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	res, st, err := runWorkload(ctx, w, o)
	if err != nil {
		return err
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("encode stamp: %w", err)
	}
	fmt.Printf("stamp %s\n", stampLine)
	printTable(os.Stdout, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d queries failed or answered wrongly", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload measures one workload in this process: the workload's fixed
// number of rounds, each on an instance of its own and each followed by the
// correctness gate. With o.trace it measures one round, for the registry
// deltas, and then the traced replay of the same instance.
func runWorkload(ctx context.Context, w workloadSpec, o options) (result, stamp, error) {
	st := newStamp(w, o)
	n := w.roundsFor(o.seconds)
	if o.short || o.trace == 1 {
		n = 1
	}
	res := result{Metrics: map[string]metricValue{}}
	var firstErr error
	// verify is the correctness gate for one instance's replies: it runs
	// between rounds, outside everything a round measures.
	verify := func(in instance, outcomes []outcome, err error) error {
		refs, rerr := references(ctx, in)
		if rerr != nil {
			return rerr
		}
		res.Attempted += len(outcomes)
		res.Failed += countFailed(in.traffic, outcomes, refs)
		if firstErr == nil {
			firstErr = err
		}
		return nil
	}

	var rounds []*round
	var speeds []float64
	for k := 0; k < n; k++ {
		r, in, err := runRound(ctx, w, roundSeed(o.seed, k))
		if err != nil {
			return result{}, st, err
		}
		if err := verify(in, r.outcomes, r.firstErr); err != nil {
			return result{}, st, err
		}
		rounds = append(rounds, r)
		st.Samples += r.answered()
		speeds = append(speeds, r.speed)
	}
	st.Rounds, st.Speed = len(rounds), median(speeds)
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, st, err
	}
	var traced *tracedRun
	if o.trace == 1 {
		var in instance
		traced, in, err = runTraced(ctx, w, roundSeed(o.seed, 0))
		if err != nil {
			return result{}, st, err
		}
		if err := verify(in, traced.outcomes, traced.firstErr); err != nil {
			return result{}, st, err
		}
		st.TracedQueries = len(traced.outcomes)
	}
	res.Correct = res.Failed == 0
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first error: %v\n", w.name, firstErr)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if traced == nil {
		values = endToEndMetrics(rounds, rss)
	} else {
		defs, values = perLayer, layerMetrics(w, rounds[0], traced)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return result{}, st, fmt.Errorf("trace directory: %w", err)
		}
		if err := writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, traced.spans); err != nil {
			return result{}, st, err
		}
	}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	return res, st, nil
}

// endToEndMetrics reduces a run's rounds to the end-to-end metrics, each
// the median over the rounds. The number of rounds is the workload's, not
// the machine's, so every statistic is taken over the same draws whatever
// the speed of the code. The timings are at nominal machine speed (see
// yardstick.go).
func endToEndMetrics(rounds []*round, rssMiB float64) map[string]float64 {
	var setup, qps, p50, cpu, allocs, allocKB, exchanges, sourceKB, simCost []float64
	for _, r := range rounds {
		n := float64(r.answered())
		wall := atNominal(r.wallSec, r.cpuMs/1000, r.speed)
		setup = append(setup, atNominal(r.setupSec, r.setupCPUSec, r.speed))
		qps = append(qps, ratio(n, wall))
		p50 = append(p50, quantile(r.latencyMs, 0.50)*ratio(wall, r.wallSec))
		cpu = append(cpu, ratio(r.cpuMs, n)/r.speed)
		allocs = append(allocs, ratio(r.mallocs, n))
		allocKB = append(allocKB, ratio(r.allocBytes, n)/1024)
		// What the sources were charged per query the deployment served,
		// warm-up included: the measured phase alone charges them nothing
		// where every query is an answer hit, and a bound needs a base.
		served := n + float64(r.warmed)
		exchanges = append(exchanges, ratio(r.after.exchanges-r.built.exchanges, served))
		sourceKB = append(sourceKB, ratio(r.after.sourceBytes-r.built.sourceBytes, served)/1024)
		simCost = append(simCost, ratio(r.after.exchangeSec-r.built.exchangeSec, served)*1000)
	}
	return map[string]float64{
		"setup_s":                    median(setup),
		"qps":                        median(qps),
		"p50_ms":                     median(p50),
		"cpu_ms_per_query":           median(cpu),
		"allocs_per_query":           median(allocs),
		"alloc_kb_per_query":         median(allocKB),
		"peak_rss_mb":                rssMiB,
		"source_exchanges_per_query": median(exchanges),
		"source_kb_per_query":        median(sourceKB),
		"sim_cost_ms_per_query":      median(simCost),
	}
}

func newStamp(w workloadSpec, o options) stamp {
	tr := w.generate(roundSeed(o.seed, 0))
	return stamp{
		Commit:       commit(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Workload:     w.name,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Traced:       o.trace == 1,
		Clients:      clients,
		RoundQueries: len(tr.measured),
		WarmQueries:  len(tr.warm),
		Note:         "closed loop; cpu_ms_per_query and the allocation metrics include the client goroutines of this process; setup_s, qps, p50_ms and cpu_ms_per_query are at nominal machine speed, measured times being speed times as long on the CPU",
	}
}

// commit names the code that is running: the revision stamped into the
// binary, else what git says about the working directory, else unknown
// (the driver's checkout is not a git repository; git is kept from looking
// for one above it).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// printTable prints the metrics by name and unit, in BENCHMARK.json order.
func printTable(out *os.File, workload string, res result) {
	fmt.Fprintf(out, "%s: attempted %d, failed %d\n", workload, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			if v, ok := res.Metrics[def.Name]; ok {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", def.Name, v.Value, v.Unit)
			}
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}
