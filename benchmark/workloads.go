package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// query is one generated fusion query in the service's wire form.
type query struct {
	conds  []string
	stream bool
	// id numbers the distinct query texts of a run from 0; repeats of a
	// pooled query share it, so one reference answer serves them all.
	id int
}

// workloadSpec is one workload: a deployment, engine settings and the
// traffic fired at them. A run repeats identical rounds, each on a fresh
// deployment, until the time given by --seconds is used up; the number of
// queries in a round is fixed, because with the answer cache off the
// planned path's cost per query grows with the number of queries since the
// last statistics pass, and a round bounded by time would change its own
// workload whenever the code got faster.
type workloadSpec struct {
	name string
	// why is the reason the workload exists, as BENCHMARK.json states it.
	why    string
	deploy deploySpec
	engine engineSpec

	// pool is the number of distinct queries traffic is drawn from; zero
	// makes every query of a round distinct.
	pool int
	// zipf, when above 1, skews the pool's popularity: query k is drawn
	// with probability proportional to (zipfFlat+k)^-zipf. Otherwise the
	// pool is drawn uniformly.
	zipf, zipfFlat float64
	// warmPool warms a round up with every pool query once, so that the
	// measured phase meets full caches; otherwise the warm-up is the first
	// tenth of the round's own kind of traffic.
	warmPool bool
	// roundQueries is the number of measured queries in one round.
	roundQueries int
	// streamShare of the queries ask for streaming execution; chunk is the
	// client's reply chunk size for all of them.
	streamShare float64
	chunk       int
	// bumpEvery, when positive, advances the roster epoch before every
	// bumpEvery-th measured query: the system's write beside its reads.
	bumpEvery int
	// rounds is the number of rounds in a run of runSeconds, calibrated once
	// on the reference machine and then frozen: a run does a fixed amount
	// of work, so that faster code gets a shorter run and not more draws.
	rounds int
	// traced is the number of queries the traced run replays.
	traced int
}

// roundsFor scales the workload's round count to a run of the given length.
func (w workloadSpec) roundsFor(seconds int) int {
	return max(1, (w.rounds*seconds+runSeconds/2)/runSeconds)
}

// The closed loop has as many clients as the reference machine has
// processors: a caller of a mediator waits for its reply, and more
// connections than cores would only queue.
const clients = 2

var cpuData = deploySpec{sources: 6, tuples: 2000, universe: 4000, attrs: 4}

var workloads = []workloadSpec{
	{
		name:         "cold-distinct",
		why:          "every query distinct, so all caches miss: parse, statistics, optimizer, executor, source scans and set algebra do the work",
		deploy:       cpuData,
		roundQueries: 120,
		rounds:       10,
		traced:       100,
	},
	{
		name:         "plan-reuse",
		why:          "answer cache off and every plan cached: isolates planned execution; with cold-distinct it separates planning cost from execution cost",
		deploy:       cpuData,
		engine:       engineSpec{answerEntries: -1},
		pool:         40,
		warmPool:     true,
		roundQueries: 120,
		rounds:       10,
		traced:       100,
	},
	{
		name:         "answer-hot",
		why:          "every query an answer-cache hit: the per-request floor of admission, cache lookup and line-JSON transport; planner and executor are bypassed",
		deploy:       cpuData,
		engine:       engineSpec{answerTTL: 10 * time.Minute},
		pool:         40,
		warmPool:     true,
		roundQueries: 2400,
		rounds:       10,
		traced:       100,
	},
	{
		name:         "remote-stream",
		why:          "streaming execution over wire-backed replicas with answers of 10^4 items: wire codec, fabric selection, merge iterators and chunking carry the work",
		deploy:       deploySpec{sources: 4, tuples: 10000, universe: 20000, attrs: 4, replicas: 2},
		engine:       engineSpec{answerEntries: -1},
		pool:         12,
		warmPool:     true,
		roundQueries: 36,
		streamShare:  1,
		chunk:        256,
		rounds:       9,
		traced:       24,
	},
	{
		name:   "wan-mixed",
		why:    "simulated WAN at real-time scale 0.2 with skewed repeats and epoch bumps: latency is exchange sleeps, so only fewer round trips and cache hits move it",
		deploy: deploySpec{sources: 4, tuples: 80, universe: 150, attrs: 3, realTime: 0.2},
		pool:   600,
		zipf:   1.1,
		// A flattened head keeps the answer-hit share near a fifth, so the
		// median latency sits among the queries that pay exchange sleeps and
		// not on the edge between them and the cache hits.
		zipfFlat:     10,
		roundQueries: 120,
		streamShare:  0.3,
		chunk:        8,
		bumpEvery:    60,
		rounds:       8,
		traced:       48,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// shortened scales the counts down to a twentieth for the smoke test, and
// the wire-backed data to a tenth.
func (w workloadSpec) shortened() workloadSpec {
	w.roundQueries = max(4, w.roundQueries/20)
	if w.pool > 0 {
		w.pool = max(3, w.pool/20)
	}
	if w.bumpEvery > 0 {
		w.bumpEvery = max(2, w.bumpEvery/20)
	}
	if w.deploy.replicas > 0 {
		w.deploy.tuples /= 10
		w.deploy.universe /= 10
	}
	w.traced = 2
	return w
}

// roundSeed is the seed of a run's k-th round. Every round has an instance
// of its own, data and traffic, so that a run averages over as many
// instances as it has rounds and depends that much less on its seed.
func roundSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// traffic is one round's generated input: the warm-up and the measured
// sequence, and how many distinct query texts they hold between them.
type traffic struct {
	warm, measured []query
	distinct       int
}

// Thresholds lie in [100, 900) of the attributes' [0, 1000).
const thresholdLo, thresholdSpan = 100, 800

// generate derives the round's traffic from the seed alone.
//
// A query is 2..attrs conditions "Ai < t" on distinct attributes. What a
// workload fixes is the multiset of query shapes in a round: how many
// conditions each query has, their thresholds, and how often each pooled
// query occurs. What the seed draws is the instance: which attributes the
// conditions are on, the order of the sequence, which queries stream, and
// (in the deployment) the data. The driver compares runs across seeds, and
// with a few hundred queries a round, shapes drawn afresh per seed would
// differ in mean cost by more than the bounds allow.
func (w workloadSpec) generate(seed int64) traffic {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.name))))
	warmN := max(1, w.roundQueries/10)
	distinct := w.pool
	if w.pool == 0 {
		distinct = w.roundQueries + warmN
	}
	texts := w.queryTexts(rng, distinct)

	// ids lists the sequence's query ids with their multiplicities, warm-up
	// first, before the seed shuffles each part.
	var warm, measured []int
	switch {
	case w.pool == 0:
		all := rng.Perm(distinct)
		warm, measured = all[:warmN], all[warmN:]
	case w.warmPool:
		warm = rng.Perm(distinct)
		measured = spread(uniform(distinct), w.roundQueries)
	default:
		all := spread(zipfWeights(distinct, w.zipf, w.zipfFlat), warmN+w.roundQueries)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		warm, measured = all[:warmN], all[warmN:]
	}
	rng.Shuffle(len(measured), func(i, j int) { measured[i], measured[j] = measured[j], measured[i] })

	total := len(warm) + len(measured)
	streams := make([]bool, total)
	for i := 0; i < int(w.streamShare*float64(total)+0.5); i++ {
		streams[i] = true
	}
	rng.Shuffle(total, func(i, j int) { streams[i], streams[j] = streams[j], streams[i] })
	tr := traffic{distinct: distinct}
	for i, id := range warm {
		tr.warm = append(tr.warm, query{conds: texts[id], id: id, stream: streams[i]})
	}
	for i, id := range measured {
		tr.measured = append(tr.measured, query{conds: texts[id], id: id, stream: streams[len(warm)+i]})
	}
	return tr
}

func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// zipfWeights gives query k the weight (flat+k)^-s.
func zipfWeights(n int, s, flat float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(flat+float64(k), -s)
	}
	return w
}

// spread returns total ids in which id k occurs in proportion to
// weights[k], exactly where that is a whole number and otherwise rounded
// by largest remainder, so the popularity a workload names is the
// popularity every seed gets.
func spread(weights []float64, total int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	order := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for k, w := range weights {
		exact := w / sum * float64(total)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		order[k] = k
		left -= counts[k]
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, k := range order[:left] {
		counts[k]++
	}
	ids := make([]int, 0, total)
	for k, c := range counts {
		for ; c > 0; c-- {
			ids = append(ids, k)
		}
	}
	return ids
}

// queryTexts builds n pairwise different condition lists. The shapes come
// from a generator that ignores the seed: query k has 2 + k mod (attrs-1)
// conditions, and the thresholds at each condition position are stratified
// over the n queries, one stratum each. rng only chooses the attributes.
func (w workloadSpec) queryTexts(rng *rand.Rand, n int) [][]string {
	attrs := w.deploy.attrs
	shape := rand.New(rand.NewSource(int64(n)*31 + int64(attrs)))
	strata := make([][]int, attrs)
	for i := range strata {
		strata[i] = shape.Perm(n)
	}
	seen := map[string]bool{}
	out := make([][]string, 0, n)
	for k := 0; k < n; k++ {
		thresholds := make([]int, 2+k%(attrs-1))
		for i := range thresholds {
			thresholds[i] = thresholdLo + int(float64(thresholdSpan)*(float64(strata[i][k])+shape.Float64())/float64(n))
		}
		for {
			chosen := rng.Perm(attrs)[:len(thresholds)]
			conds := make([]string, len(thresholds))
			for i, a := range chosen {
				conds[i] = fmt.Sprintf("A%d < %d", a+1, thresholds[i])
			}
			sort.Strings(conds)
			if key := strings.Join(conds, " AND "); !seen[key] {
				seen[key] = true
				out = append(out, conds)
				break
			}
		}
	}
	return out
}

// sequenceHash fingerprints a round's traffic; the determinism test pins
// it for seed 1.
func (tr traffic) sequenceHash() string {
	h := sha256.New()
	for _, part := range [][]query{tr.warm, tr.measured} {
		for _, q := range part {
			fmt.Fprintf(h, "%s|%v\n", strings.Join(q.conds, " AND "), q.stream)
		}
		fmt.Fprintln(h, "--")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
