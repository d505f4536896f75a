package exec

import (
	"context"
	"fmt"
	"testing"

	"fusionq/internal/set"
)

// TestEmitSortedFollowsTheSchedule: a node emits a sorted slice in
// set.Schedule's sizes, as many batches as set.Batches counts, for every
// length in a stride through [0, 20 000] and each first size; batch 0 is the
// round scheduler's one whole emission.
func TestEmitSortedFollowsTheSchedule(t *testing.T) {
	all := make([]string, 20000)
	for i := range all {
		all[i] = fmt.Sprintf("ID%06d", i)
	}
	emitted := func(items []string, first int) []int {
		ed := &streamEdge{tr: &byteTracker{}, sendKick: make(chan struct{}, 1), recvKick: make(chan struct{}, 1)}
		nd := &node{outs: []*streamEdge{ed}, dead: []bool{false}, live: 1}
		if err := nd.emitSorted(context.Background(), items, first); err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for _, b := range ed.buf {
			sizes = append(sizes, len(*b.items))
		}
		ed.abandonNow()
		return sizes
	}
	for _, first := range []int{1, 4, 256} {
		for n := 0; n <= len(all); n += 1 + n/16 {
			var want []int
			for s, left := set.NewSchedule(first), n; left > 0; {
				size := min(s.Next(), left)
				want = append(want, size)
				left -= size
			}
			got := emitted(all[:n], first)
			if fmt.Sprint(got) != fmt.Sprint(want) || float64(len(got)) != set.Batches(float64(n), first) {
				t.Fatalf("%d items from %d: batches %v, want %v (set.Batches %v)", n, first, got, want, set.Batches(float64(n), first))
			}
		}
	}
	if got := emitted(all[:1000], 0); fmt.Sprint(got) != "[1000]" {
		t.Fatalf("batch 0 emitted %v, want one batch of 1000", got)
	}
}
