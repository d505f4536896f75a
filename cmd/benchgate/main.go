// Command benchgate is the exact-count gate over the benchmark: it runs the
// workloads BENCH_exact.json at the repository root names, at the seed and
// length each one's stamp records, and fails when a count that repeats run
// to run has moved past its bound. A change that moves one on purpose
// rewrites the file in the same commit.
//
// Bounds: source_exchanges_per_query and source_kb_per_query match exactly,
// sim_cost_ms_per_query to 6 significant figures (its last float digits
// vary), allocs_per_query within 2 % and alloc_kb_per_query within 10 % —
// the allocation metrics gated only on a runtime like the stamp's (Go
// version and GOMAXPROCS), reported and not gated on any other, which
// allocates differently. A workload whose traffic follows the wall
// clock (wallClocked) has its three traffic counts gated within
// wallClockBound of the file's instead.
//
// Each entry's stamp is the benchmark's own stamp line. Its commit is the
// HEAD of the checkout -write ran in, and the tree measured is that commit
// with the working tree's changes on top: when a change rewrites the file
// before it is committed, as it should, commit names the parent of the
// commit that carries the file.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchgate          # check (make bench-gate)
//	go run ./cmd/benchgate -write   # rerun every workload and rewrite the file
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const file = "BENCH_exact.json"

var gated = []string{"source_exchanges_per_query", "source_kb_per_query", "sim_cost_ms_per_query", "allocs_per_query", "alloc_kb_per_query"}

// allocBound is each allocation metric's relative bound. Bytes spread more
// than counts run to run, as the pools refill after a collection or not:
// nine 2-second seed-1 runs of one tree spread 5.8 % in
// alloc_kb_per_query on cold-distinct (4.7 % on plan-reuse, 2.0 % on
// remote-stream, 0.1 % on answer-hot), and the file holds one run, which
// may sit at either end. 10 % clears that and still fails a change that
// doubles the bytes a query without adding allocations.
var allocBound = map[string]float64{"allocs_per_query": 0.02, "alloc_kb_per_query": 0.10}

// wallClocked are the workloads whose traffic follows the wall clock:
// remote-stream's fabric hedges an exchange after a delay measured on the
// clock, so a slow moment can add a hedge, and its exchanges, bytes and
// simulated cost, to a run.
var wallClocked = map[string]bool{"remote-stream": true}

// wallClockBound is the relative bound on a wallClocked workload's traffic
// counts. Across eleven seeds (EXPERIMENTS.md E30) remote-stream's exchanges
// were identical on two trees, its bytes agreed within 0.1 % and its
// simulated cost within 0.05 %; 0.5 % clears that noise and still fails a
// planted extra exchange, about 2 % of its 49 a query.
const wallClockBound = 0.005

// point is one workload's entry: the stamp line of the run that measured it
// and the gated metrics.
type point struct {
	Stamp   json.RawMessage    `json:"stamp"`
	Metrics map[string]float64 `json:"metrics"`
}

type stamp struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func main() {
	write := flag.Bool("write", false, "rerun every workload of the file and rewrite it")
	flag.Parse()
	if err := run(*write); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(write bool) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var want map[string]point
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	got, failed := map[string]point{}, 0
	for _, name := range names {
		var old stamp
		if err := json.Unmarshal(want[name].Stamp, &old); err != nil {
			return fmt.Errorf("%s: %s stamp: %w", file, name, err)
		}
		p, now, err := measure(name, old.Seed, old.Seconds)
		if err != nil {
			return err
		}
		got[name] = p
		sameRuntime := now.GoVersion == old.GoVersion && now.GOMAXPROCS == old.GOMAXPROCS
		for _, m := range gated {
			w, g := want[name].Metrics[m], p.Metrics[m]
			ok := g == w
			bound, isAlloc := allocBound[m]
			switch {
			case isAlloc:
				ok = math.Abs(g-w) <= bound*w || !sameRuntime
			case wallClocked[name]:
				ok = math.Abs(g-w) <= wallClockBound*w
			case m == "sim_cost_ms_per_query":
				ok = strconv.FormatFloat(g, 'g', 6, 64) == strconv.FormatFloat(w, 'g', 6, 64)
			}
			verdict := "ok"
			if !ok {
				verdict, failed = "MOVED", failed+1
			} else if isAlloc && !sameRuntime {
				verdict = "advisory (runtime differs from the stamp)"
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g  %s\n", name, m, w, g, verdict)
		}
	}
	if write {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(file, append(out, '\n'), 0o644)
	}
	if failed > 0 {
		return fmt.Errorf("%d counts moved past their bounds; a change that moves them on purpose rewrites %s (go run ./cmd/benchgate -write)", failed, file)
	}
	return nil
}

// measure runs one workload through benchmark/run.sh and returns its gated
// metrics with the run's stamp line.
func measure(name string, seed int64, seconds int) (point, stamp, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return point{}, stamp{}, fmt.Errorf("%s: %w", name, err)
	}
	var p point
	var res struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if s, ok := bytes.CutPrefix(line, []byte("stamp ")); ok {
			p.Stamp = append(json.RawMessage(nil), s...)
		} else if bytes.HasPrefix(line, []byte("{")) {
			if err := json.Unmarshal(line, &res); err != nil {
				return point{}, stamp{}, fmt.Errorf("%s: result line: %w", name, err)
			}
		}
	}
	var st stamp
	if err := json.Unmarshal(p.Stamp, &st); err != nil {
		return point{}, stamp{}, fmt.Errorf("%s: stamp line: %w", name, err)
	}
	p.Metrics = map[string]float64{}
	for _, m := range gated {
		v, ok := res.Metrics[m]
		if !ok {
			return point{}, stamp{}, fmt.Errorf("%s: no %s in %q", name, m, strings.TrimSpace(string(out)))
		}
		p.Metrics[m] = v.Value
	}
	return p, st, nil
}
