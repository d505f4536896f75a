package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload in a process of its own (so that CPU time,
// allocation counters and peak RSS are the workload's alone), echoes each
// child's report to out and returns the results by workload name.
func runAll(ctx context.Context, o options, out io.Writer) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	results := map[string]result{}
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-trace", strconv.Itoa(o.trace), "-out", o.outDir,
		}
		if o.short {
			args = append(args, "-short")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if _, werr := out.Write(stdout); werr != nil {
			return nil, fmt.Errorf("echo %s: %w", w.name, werr)
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("workload %s: last line is not a result: %w", w.name, err)
		}
		results[w.name] = res
	}
	return results, nil
}

// repeats lists the counts that two runs of one seed must reproduce on
// cold-distinct, where the two clients share nothing: the source traffic
// exactly, the allocations to a thousandth.
var repeats = []struct {
	metric string
	within float64
}{
	{"source_exchanges_per_query", 0},
	{"source_kb_per_query", 0},
	// A sum of float seconds, added in the order the clients' exchanges land.
	{"sim_cost_ms_per_query", 1e-9},
	{"allocs_per_query", 0.001},
}

// agree runs the whole set twice and prints, per workload and end-to-end
// metric, how far the second run is from the first relative to the
// metric's bound. A pair further apart than the bound is unresolved: the
// benchmark could not tell such a change from its own noise. The counts in
// repeats are then held to their own, tighter limits.
func agree(ctx context.Context, o options) error {
	o.trace = 0
	first, err := runAll(ctx, o, io.Discard)
	if err != nil {
		return err
	}
	second, err := runAll(ctx, o, io.Discard)
	if err != nil {
		return err
	}
	diff := func(workload, metric string) (a, b, d float64) {
		a, b = first[workload].Metrics[metric].Value, second[workload].Metrics[metric].Value
		return a, b, math.Abs(ratio(b-a, a))
	}
	outside := 0
	row := func(workload, metric string, limit float64, verdict string) {
		a, b, d := diff(workload, metric)
		if d <= limit {
			verdict = ""
		} else {
			outside++
		}
		fmt.Printf("%-14s %-28s %14.4f %14.4f %9.4f%% %8.4f%% %s\n", workload, metric, a, b, d*100, limit*100, verdict)
	}
	fmt.Printf("%-14s %-28s %14s %14s %10s %9s\n", "workload", "metric", "first", "second", "diff", "limit")
	for _, w := range workloads {
		for _, def := range endToEnd {
			row(w.name, def.Name, def.Bound, "unresolved")
		}
	}
	for _, rep := range repeats {
		row("cold-distinct", rep.metric, rep.within, "does not repeat")
	}
	if outside > 0 {
		return fmt.Errorf("%d metric and workload pairs differ by more than their limit between two runs of the same code", outside)
	}
	return nil
}
