package oracle

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fusionq/internal/set"
	"fusionq/internal/workload"
)

// The oracle's knobs: -oracle.n sets how many instances each property run
// draws, -oracle.seed sets the single master seed every random choice flows
// from. Instance i uses seed oracle.seed+i, so any failure reproduces with
// -oracle.seed=<printed seed> -oracle.n=1.
var (
	oracleN    = flag.Int("oracle.n", 120, "oracle instances per run")
	oracleSeed = flag.Int64("oracle.seed", 1, "master seed; instance i uses seed+i")
)

// TestOracle is the main differential property run: every plan class must
// agree with the reference executor on every generated instance, under
// every enabled execution mode, with balanced observability and a sound
// cost model.
func TestOracle(t *testing.T) {
	n := *oracleN
	if testing.Short() && n > 25 {
		n = 25
	}
	d := &Driver{}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		seed := *oracleSeed + int64(i)
		inst := Generate(seed)
		fs, err := d.Check(ctx, inst)
		if err != nil {
			t.Fatalf("oracle.seed=%d: instance could not be built: %v\nrepro: %s", seed, err, inst.ReproCommand())
		}
		if len(fs) > 0 {
			reportFailures(t, d, inst, fs)
		}
	}
}

// reportFailures shrinks a failing instance and fails the test with the
// seed, every violated property, the minimal instance JSON and the verbatim
// repro command.
func reportFailures(t *testing.T, d *Driver, inst Instance, fs []Failure) {
	t.Helper()
	minInst, minFails := d.Shrink(context.Background(), inst, fs, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "oracle failure at seed %d (%d violations):\n", inst.Seed, len(fs))
	for _, f := range fs {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	fmt.Fprintf(&b, "shrunk to minimal instance (%d violations):\n", len(minFails))
	for _, f := range minFails {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	fmt.Fprintf(&b, "%s\n", minInst.JSON())
	fmt.Fprintf(&b, "repro: %s\n", inst.ReproCommand())
	t.Fatal(b.String())
}

// TestGenerateDeterministic pins the single-seed reproducibility contract:
// the same seed must always yield the identical instance, and checking it
// twice must yield the same verdict.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 99, 4242} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\nvs\n%s", seed, a.JSON(), b.JSON())
		}
	}
	d := &Driver{}
	ctx := context.Background()
	inst := Generate(*oracleSeed)
	fs1, err1 := d.Check(ctx, inst)
	fs2, err2 := d.Check(ctx, inst)
	if (err1 == nil) != (err2 == nil) || len(fs1) != len(fs2) {
		t.Fatalf("seed %d: Check is not deterministic: %d/%v vs %d/%v", inst.Seed, len(fs1), err1, len(fs2), err2)
	}
}

// TestOracleCatchesMutation proves the oracle has teeth: a deliberately
// seeded answer-corrupting mutation (the Driver's test hook) must be caught
// as an answer mismatch and shrunk to a minimal instance that still fails.
// The service case corrupts what fqd's clients receive.
func TestOracleCatchesMutation(t *testing.T) {
	for _, cls := range []string{"sja+", "service"} {
		t.Run(cls, func(t *testing.T) { testCatchesMutation(t, cls) })
	}
}

func testCatchesMutation(t *testing.T, cls string) {
	d := &Driver{
		MutateClass: cls,
		Mutate: func(s set.Set) set.Set {
			if s.IsEmpty() {
				return set.New("BOGUS")
			}
			return set.New(s.Items()[:s.Len()-1]...)
		},
	}
	ctx := context.Background()
	inst := Generate(*oracleSeed)
	inst.PlanCache = inst.PlanCache || cls == "service"
	fs, err := d.Check(ctx, inst)
	if err != nil {
		t.Fatalf("instance build failed: %v", err)
	}
	caught := false
	for _, f := range fs {
		caught = caught || strings.HasPrefix(f.String(), "answer-mismatch ["+cls+"/")
	}
	if !caught {
		t.Fatalf("seeded answer corruption in class %q was not caught; failures: %v", d.MutateClass, fs)
	}

	minInst, minFails := d.Shrink(ctx, inst, fs, 0)
	if !hasProperty(minFails, "answer-mismatch") {
		t.Fatalf("shrunk instance no longer reproduces the mismatch: %v", minFails)
	}
	if minInst.NumSources > inst.NumSources || len(minInst.Selectivity) > len(inst.Selectivity) ||
		minInst.TuplesPerSource > inst.TuplesPerSource || minInst.Universe > inst.Universe {
		t.Fatalf("shrinker grew the instance:\noriginal %s\nshrunk %s", inst.JSON(), minInst.JSON())
	}
	// The mutation survives every feature removal, so the shrinker should
	// strip the instance to its structural core.
	if minInst.Faults || minInst.Deadline || minInst.Zipf {
		t.Fatalf("shrinker left removable features enabled: %s", minInst.JSON())
	}
	t.Logf("mutation caught and shrunk: %d sources, %d conds, %d tuples, %d items",
		minInst.NumSources, len(minInst.Selectivity), minInst.TuplesPerSource, minInst.Universe)
}

// TestReferenceAnswerDMV pins the reference executor itself against the
// paper's worked Figure 1 example, whose answer is {J55, T21}.
func TestReferenceAnswerDMV(t *testing.T) {
	ref, err := ReferenceAnswer(workload.DMV())
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ref.Equal(want) {
		t.Fatalf("reference answer %v, want %v", ref, want)
	}
}

// TestInstanceJSONRoundTrip ensures the repro artifact format is lossless.
func TestInstanceJSONRoundTrip(t *testing.T) {
	inst := Generate(17)
	var back Instance
	if err := json.Unmarshal([]byte(inst.JSON()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst, back) {
		t.Fatalf("JSON round trip lost data:\n%s\nvs\n%s", inst.JSON(), back.JSON())
	}
	// A repro written while instances still drew a "parallel" or a
	// "cacheRuns" sweep loads as the same instance: the keys are unknown now,
	// and unknown keys are ignored.
	for _, key := range []string{"parallel", "cacheRuns"} {
		old := strings.Replace(inst.JSON(), "{", `{"`+key+`": true,`, 1)
		var loaded Instance
		if err := json.Unmarshal([]byte(old), &loaded); err != nil || !reflect.DeepEqual(inst, loaded) {
			t.Fatalf("a repro with the retired %q key: err %v, loaded\n%s\nwant\n%s", key, err, loaded.JSON(), inst.JSON())
		}
	}
}

func hasProperty(fs []Failure, prop string) bool {
	for _, f := range fs {
		if f.Property == prop {
			return true
		}
	}
	return false
}
