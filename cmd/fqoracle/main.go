// Command fqoracle runs the differential plan-equivalence oracle as a soak:
// it generates seeded random fusion-query instances and checks every plan
// class against the naive reference executor under every execution mode
// (see internal/oracle). On a property violation it shrinks the instance to
// minimal form, prints the seed, the violations, the minimal instance JSON
// and the verbatim repro command, optionally writes a repro artifact, and
// exits 1.
//
// Usage:
//
//	fqoracle [-n 500] [-seed 1] [-duration 0] [-churn] [-repro out.json] [-selftest] [-v]
//
// With -duration set, fqoracle runs until the wall clock expires instead of
// counting instances (the CI soak mode). -seed 0 derives a seed from the
// clock and prints it, so even ad-hoc soaks are reproducible. -churn forces
// the replica-churn sweep on every instance, alternating between a
// surviving-replica kill (the answer must still be exact) and a kill of
// every replica (the failure must classify honestly) — the CI churn soak.
// -selftest injects a deliberate answer corruption and verifies the oracle
// catches and shrinks it — a meta-check that the safety net is live.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/oracle"
	"fusionq/internal/set"
)

// writeFlight dumps the soak's flight recorder as a JSON artifact.
func writeFlight(rec *obs.Recorder, path string) {
	data, err := rec.ExportJSON()
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fqoracle: flight artifact: %v\n", err)
		return
	}
	fmt.Printf("fqoracle: flight recorder written to %s\n", path)
}

func main() {
	var (
		n        = flag.Int("n", 500, "instances to run (ignored when -duration is set)")
		seed     = flag.Int64("seed", 1, "master seed; instance i uses seed+i (0 derives one from the clock)")
		duration = flag.Duration("duration", 0, "soak for this long instead of counting instances")
		churn    = flag.Bool("churn", false, "force the replica-churn sweep on every instance, alternating surviving-replica and kill-all scenarios")
		repro    = flag.String("repro", "", "write the minimal reproducing instance JSON to this file on failure")
		flight   = flag.String("flight", "", "write the soak's flight-recorder JSON (tail-retained traces of every plan run) to this file")
		selftest = flag.Bool("selftest", false, "inject an answer corruption and verify the oracle catches and shrinks it")
		verbose  = flag.Bool("v", false, "log every instance")
	)
	flag.Parse()
	os.Exit(run(context.Background(), *n, *seed, *duration, *churn, *repro, *flight, *selftest, *verbose))
}

// reproArtifact is the JSON document written for a failing run.
type reproArtifact struct {
	Seed     int64            `json:"seed"`
	Original oracle.Instance  `json:"original"`
	Minimal  oracle.Instance  `json:"minimal"`
	Failures []oracle.Failure `json:"failures"`
	Command  string           `json:"command"`
}

func run(ctx context.Context, n int, seed int64, duration time.Duration, churn bool, reproPath, flightPath string, selftest, verbose bool) int {
	if seed == 0 {
		seed = time.Now().UnixNano()
		fmt.Printf("fqoracle: derived seed %d (pass -seed=%d to replay this soak)\n", seed, seed)
	}
	d := &oracle.Driver{}
	if flightPath != "" {
		d.Recorder = obs.NewRecorder(obs.RecorderConfig{})
		// The artifact is written however the soak ends — a failing run's
		// flight tail is exactly the interesting one.
		defer writeFlight(d.Recorder, flightPath)
	}
	if selftest {
		d.MutateClass = "sja+"
		d.Mutate = func(s set.Set) set.Set {
			if s.IsEmpty() {
				return set.New("BOGUS")
			}
			return set.New(s.Items()[:s.Len()-1]...)
		}
		fmt.Println("fqoracle: selftest — corrupting sja+ answers; the oracle must catch this")
	}

	start := time.Now()
	checked := 0
	for i := 0; ; i++ {
		if duration > 0 {
			if time.Since(start) >= duration {
				break
			}
		} else if i >= n {
			break
		}
		instSeed := seed + int64(i)
		inst := oracle.Generate(instSeed)
		if churn {
			inst.Replicate = true
			inst.ChurnKillAll = i%2 == 1
		}
		fs, err := d.Check(ctx, inst)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fqoracle: seed %d: instance could not be built: %v\n", instSeed, err)
			return 2
		}
		checked++
		if verbose {
			fmt.Printf("seed %d: %d sources, %d conds, %d tuples: %d violations\n",
				instSeed, inst.NumSources, len(inst.Selectivity), inst.TuplesPerSource, len(fs))
		}
		if len(fs) == 0 {
			continue
		}
		if selftest {
			return reportSelftest(ctx, d, inst, fs, reproPath)
		}
		report(ctx, d, inst, fs, reproPath)
		return 1
	}
	if selftest {
		fmt.Fprintf(os.Stderr, "fqoracle: selftest FAILED: corruption survived %d instances undetected\n", checked)
		return 1
	}
	fmt.Printf("fqoracle: %d instances in %v, all properties hold (seeds %d..%d)\n",
		checked, time.Since(start).Round(time.Millisecond), seed, seed+int64(checked-1))
	return 0
}

// report shrinks, prints and persists one genuine failure.
func report(ctx context.Context, d *oracle.Driver, inst oracle.Instance, fs []oracle.Failure, reproPath string) {
	minInst, minFails := d.Shrink(ctx, inst, fs, 300)
	fmt.Fprintf(os.Stderr, "fqoracle: FAILURE at seed %d (%d violations):\n", inst.Seed, len(fs))
	for _, f := range fs {
		fmt.Fprintf(os.Stderr, "  - %s\n", f)
	}
	fmt.Fprintf(os.Stderr, "minimal instance (%d violations", len(minFails))
	for _, f := range minFails {
		fmt.Fprintf(os.Stderr, "; %s", f.Property)
	}
	fmt.Fprintf(os.Stderr, "):\n%s\n", minInst.JSON())
	fmt.Fprintf(os.Stderr, "repro: %s\n", inst.ReproCommand())
	writeArtifact(reproPath, inst, minInst, minFails)
}

// reportSelftest validates that the injected corruption was caught as an
// answer mismatch and shrinks cleanly, returning the process exit code.
func reportSelftest(ctx context.Context, d *oracle.Driver, inst oracle.Instance, fs []oracle.Failure, reproPath string) int {
	mismatch := func(f oracle.Failure) bool { return f.Property == "answer-mismatch" }
	if !slices.ContainsFunc(fs, mismatch) {
		fmt.Fprintf(os.Stderr, "fqoracle: selftest FAILED: violations found but none is an answer mismatch: %v\n", fs)
		return 1
	}
	minInst, minFails := d.Shrink(ctx, inst, fs, 300)
	if !slices.ContainsFunc(minFails, mismatch) {
		fmt.Fprintf(os.Stderr, "fqoracle: selftest FAILED: shrunk instance lost the mismatch\n%s\n", minInst.JSON())
		return 1
	}
	fmt.Printf("fqoracle: selftest passed — corruption caught at seed %d and shrunk to %d sources, %d conds, %d tuples\n",
		inst.Seed, minInst.NumSources, len(minInst.Selectivity), minInst.TuplesPerSource)
	writeArtifact(reproPath, inst, minInst, minFails)
	return 0
}

// writeArtifact persists the repro document; best effort, path optional.
func writeArtifact(path string, inst, minInst oracle.Instance, minFails []oracle.Failure) {
	if path == "" {
		return
	}
	art := reproArtifact{Seed: inst.Seed, Original: inst, Minimal: minInst, Failures: minFails, Command: inst.ReproCommand()}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fqoracle: marshaling repro artifact: %v\n", err)
		return
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fqoracle: writing repro artifact: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "fqoracle: repro artifact written to %s\n", path)
}
