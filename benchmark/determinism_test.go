package main

import "testing"

// The query sequence is a function of the seed alone. The hashes pin the
// first round of seed 1: a change to the generator changes every workload
// the benchmark has measured so far, and must be a deliberate one.
var seed1Hashes = map[string]string{
	"cold-distinct": "1f536ea4f760a59e",
	"plan-reuse":    "a18afa510073d115",
	"answer-hot":    "397e55ec7c2718f2",
	"remote-stream": "e7cef54e9a0edb75",
	"wan-mixed":     "0423367208f3a883",
}

func TestSequenceIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		one := w.generate(roundSeed(1, 0))
		if again := w.generate(roundSeed(1, 0)); again.sequenceHash() != one.sequenceHash() {
			t.Errorf("%s: seed 1 gave two different sequences", w.name)
		}
		if two := w.generate(roundSeed(2, 0)); two.sequenceHash() == one.sequenceHash() {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
		if next := w.generate(roundSeed(1, 1)); next.sequenceHash() == one.sequenceHash() {
			t.Errorf("%s: the first two rounds of seed 1 gave the same sequence", w.name)
		}
		if got, want := one.sequenceHash(), seed1Hashes[w.name]; got != want {
			t.Errorf("%s: seed 1 sequence hash %s, pinned %s", w.name, got, want)
		}
		if len(one.measured) != w.roundQueries {
			t.Errorf("%s: %d measured queries, want %d", w.name, len(one.measured), w.roundQueries)
		}
		if w.pool == 0 {
			seen := map[int]bool{}
			for _, q := range append(append([]query(nil), one.warm...), one.measured...) {
				if seen[q.id] {
					t.Errorf("%s: query %d repeats in a workload of distinct queries", w.name, q.id)
				}
				seen[q.id] = true
			}
		}
	}
}
