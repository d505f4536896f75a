package optimizer

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fusionq/internal/plan"
	"fusionq/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from this run")

// goldenProblems draws the fixed problems TestPlansGolden plans: 1–4
// conditions over 1–6 sources, each source's size, costs, semijoin tier and
// Bloom filter drawn too, small sources among them so that SJA+ loads some.
func goldenProblems(t *testing.T) []*Problem {
	rng := rand.New(rand.NewSource(54))
	out := make([]*Problem, 400)
	for k := range out {
		m, n := 1+rng.Intn(4), 1+rng.Intn(6)
		sts := make([]stats.SourceStats, n)
		profiles := make([]stats.SourceProfile, n)
		for j := range sts {
			items := 20 + rng.Intn(600)
			st := stats.SourceStats{Name: plan.SourceName(j), Tuples: 2 * items, DistinctItems: items, Bytes: 16 * items * (1 + rng.Intn(8)), CondCard: make([]float64, m)}
			for i := range st.CondCard {
				st.CondCard[i] = float64(rng.Intn(items + 1))
			}
			sts[j] = st
			profiles[j] = stats.SourceProfile{
				Name:        st.Name,
				PerQuery:    1 + rng.Float64()*20,
				PerItemSent: rng.Float64() * 2,
				PerItemRecv: rng.Float64() * 2,
				PerByteLoad: rng.Float64() * 0.2,
				Support:     stats.SemijoinSupport(rng.Intn(3)),
				ItemBytes:   8,
			}
			if rng.Intn(4) == 0 {
				profiles[j].BloomBitsPerItem = 8
			}
		}
		table, err := stats.Build(mkConds(m), sts, profiles)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = &Problem{Conds: mkConds(m), Sources: mkNames("R", n), Table: table}
	}
	return out
}

// TestPlansGolden plans a fixed set of problems with every row of
// Algorithms and compares, per row, a hash of each plan's text, its cost's
// bits and its sketch with testdata/plans.golden: a change to how plans are
// built or priced that moves any plan, cost or sketch fails it. The problems
// include plans that load a source and rounds whose difference-pruning chain
// holds two or more remote semijoins, the shapes postoptimization adds.
// `go test ./internal/optimizer -run TestPlansGolden -update` rewrites the
// file.
func TestPlansGolden(t *testing.T) {
	const golden = "testdata/plans.golden"
	problems := goldenProblems(t)
	loads, chains := 0, 0
	var got strings.Builder
	for _, a := range Algorithms {
		h := sha256.New()
		for k, pr := range problems {
			res, err := a.Plan(pr)
			if err != nil {
				t.Fatalf("%s, problem %d: %v", a.Name, k, err)
			}
			fmt.Fprintf(h, "%s%x\n%+v\n", res.Plan, math.Float64bits(res.Cost), res.Sketch)
			loads += countKind(res.Plan, plan.KindLoad)
			if res.Sketch.DiffPrune {
				chains += prunedChains(res.Plan)
			}
		}
		fmt.Fprintf(&got, "%s %x\n", a.Name, h.Sum(nil))
	}
	t.Logf("%d loads, %d pruned rounds with two or more remote semijoins", loads, chains)
	if loads == 0 {
		t.Error("no plan loads a source: the problems do not reach SJA+'s loading pass")
	}
	if chains == 0 {
		t.Error("no pruned round has two remote semijoins: the problems do not reach a pruning chain")
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("plans differ from %s (rerun with -update if the change is meant):\ngot\n%swant\n%s", golden, got.String(), want)
	}
}

func countKind(p *plan.Plan, kind plan.Kind) int {
	n := 0
	for _, s := range p.Steps {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// prunedChains counts the rounds of p that send two or more remote
// semijoins.
func prunedChains(p *plan.Plan) int {
	per := make(map[int]int)
	for _, s := range p.Steps {
		if s.Kind == plan.KindSemijoin || s.Kind == plan.KindBloomSemijoin {
			per[s.Cond]++
		}
	}
	n := 0
	for _, c := range per {
		if c >= 2 {
			n++
		}
	}
	return n
}
