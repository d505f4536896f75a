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
// wallClockBound of the file's instead, and is run wallClockRuns times
// (stampRuns by -write): each of its metrics is the median of its runs, in
// the check and in the file.
//
// Each entry's stamp is the benchmark's own stamp line. Its commit is the
// HEAD of the checkout -write ran in, and the tree measured is that commit
// with the working tree's changes on top: when a change rewrites the file
// before it is committed, as it should, commit names the parent of the
// commit that carries the file.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchgate                         # check (make bench-gate)
//	go run ./cmd/benchgate -write                  # rerun every workload and rewrite the file
//	go run ./cmd/benchgate -write plan-reuse ...   # rerun and restamp those entries alone
//	go run ./cmd/benchgate -spread 9               # min, median and max of each metric over 9 runs
//
// -write with names reruns only the workloads named and rewrites only their
// entries, every other byte of the file left as it was: a change that moves
// one workload's counts on purpose restamps that one, and the others keep
// the stamps they were measured at.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
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

// wallClockRuns is how many times the check runs a wallClocked workload;
// it gates the median. A hedged query is one the flight recorder keeps, and
// exporting its trace allocates, so remote-stream's allocations follow the
// wall clock too: one run in about six read outside the 2 % bound on a tree
// that had not changed. The median of three leaves the bounds where they
// are and costs two more runs.
const wallClockRuns = 3

// stampRuns is how many times -write runs a wallClocked workload; it
// stamps the median. Every later check's median is compared with the
// stamp, so the stamp is measured more closely than one check is: over
// ten checks of one tree, remote-stream's medians of three spread 3.4 %
// (1 426–1 475 allocations a query), most of the 4 % the bound spans, and
// a stamp of three runs that sat 0.6 % below their center failed one of
// the ten.
const stampRuns = 3 * wallClockRuns

// point is one workload's entry: the stamp line of the first run that
// measured it, how many runs did (omitted for one), and the gated metrics,
// each the median of those runs.
type point struct {
	Stamp   json.RawMessage    `json:"stamp"`
	Runs    int                `json:"runs,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

type stamp struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func main() {
	write := flag.Bool("write", false, "rerun the workloads named after the flags, or every workload of the file, and rewrite their entries")
	spread := flag.Int("spread", 0, "run every workload of the file this many times and print each gated metric's min, median and max; gates nothing")
	flag.Parse()
	var err error
	switch {
	case *write && *spread > 0:
		err = fmt.Errorf("-write and -spread exclude each other")
	case !*write && flag.NArg() > 0:
		err = fmt.Errorf("workload names are for -write alone: %q", flag.Args())
	case *spread > 0:
		err = printSpread(*spread)
	default:
		err = run(*write, flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

// load reads the file: its bytes, each workload's entry, and the workloads
// in name order with each one's stamp.
func load() ([]byte, map[string]point, []string, map[string]stamp, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var want map[string]point
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", file, err)
	}
	names := make([]string, 0, len(want))
	stamps := map[string]stamp{}
	for name, p := range want {
		var st stamp
		if err := json.Unmarshal(p.Stamp, &st); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %s stamp: %w", file, name, err)
		}
		names = append(names, name)
		stamps[name] = st
	}
	sort.Strings(names)
	return data, want, names, stamps, nil
}

// run checks every workload of the file, or with write reruns the
// workloads only names (every one when only is empty) and rewrites their
// entries.
func run(write bool, only []string) error {
	data, want, names, stamps, err := load()
	if err != nil {
		return err
	}
	if names, err = pick(names, only); err != nil {
		return err
	}
	got, failed := map[string]point{}, 0
	for _, name := range names {
		old := stamps[name]
		k := 1
		switch {
		case wallClocked[name] && write:
			k = stampRuns
		case wallClocked[name]:
			k = wallClockRuns
		}
		runs, now, err := measureRuns(name, old.Seed, old.Seconds, k)
		if err != nil {
			return err
		}
		p := runs[0]
		p.Metrics = map[string]float64{}
		for _, m := range gated {
			p.Metrics[m] = summarize(values(runs, m)).median
		}
		if k > 1 {
			p.Runs = k
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
		out, err := restamp(data, got)
		if err != nil {
			return err
		}
		return os.WriteFile(file, out, 0o644)
	}
	if failed > 0 {
		return fmt.Errorf("%d counts moved past their bounds; a change that moves them on purpose rewrites %s (go run ./cmd/benchgate -write)", failed, file)
	}
	return nil
}

// printSpread runs every workload of the file n times at its stamp's seed
// and length, and prints each gated metric's min, median and max over the
// runs, and the spread (max-min)/median: the noise floor a bound has to
// clear.
func printSpread(n int) error {
	_, _, names, stamps, err := load()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-28s %14s %14s %14s %8s\n", "workload", "metric", "min", "median", "max", "spread")
	for _, name := range names {
		runs, _, err := measureRuns(name, stamps[name].Seed, stamps[name].Seconds, n)
		if err != nil {
			return err
		}
		for _, m := range gated {
			q := summarize(values(runs, m))
			spread := 0.0
			if q.median != 0 {
				spread = (q.max - q.min) / q.median
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g %14.6g %7.2f%%\n", name, m, q.min, q.median, q.max, 100*spread)
		}
	}
	return nil
}

// pick is the names that only lists, in names' order, or all of names when
// only is empty; a name that names lacks is an error.
func pick(names, only []string) ([]string, error) {
	for _, name := range only {
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("%s has no workload %q (it has %s)", file, name, strings.Join(names, ", "))
		}
	}
	if len(only) == 0 {
		return names, nil
	}
	return slices.DeleteFunc(names, func(name string) bool { return !slices.Contains(only, name) }), nil
}

// restamp is the file's bytes with the entries of got in place of theirs,
// each indented as a whole file written by json.MarshalIndent would indent
// it, and every other byte as it was.
func restamp(data []byte, got map[string]point) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, fmt.Errorf("%s: not a JSON object", file)
	}
	var out []byte
	done := 0
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		var entry json.RawMessage
		if err := dec.Decode(&entry); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		p, ok := got[t.(string)]
		if !ok {
			continue
		}
		end := int(dec.InputOffset())
		value, err := json.MarshalIndent(p, "  ", "  ")
		if err != nil {
			return nil, err
		}
		out = append(append(out, data[done:end-len(entry)]...), value...)
		done = end
	}
	return append(out, data[done:]...), nil
}

// measureRuns runs one workload k times and returns each run's gated
// metrics, with the stamp of the first.
func measureRuns(name string, seed int64, seconds, k int) ([]point, stamp, error) {
	var runs []point
	var first stamp
	for i := 0; i < k; i++ {
		p, st, err := measure(name, seed, seconds)
		if err != nil {
			return nil, stamp{}, err
		}
		if i == 0 {
			first = st
		}
		runs = append(runs, p)
	}
	return runs, first, nil
}

// values is metric m of every run.
func values(runs []point, m string) []float64 {
	out := make([]float64, len(runs))
	for i, p := range runs {
		out[i] = p.Metrics[m]
	}
	return out
}

// summary is the least, middle and greatest of some values; the middle of
// an even count is the mean of the two middle values.
type summary struct{ min, median, max float64 }

func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	return summary{min: s[0], median: (s[(n-1)/2] + s[n/2]) / 2, max: s[n-1]}
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
