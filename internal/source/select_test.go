package source

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/racetest"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

// benchRelation draws n tuples (ID, A in [0,100), B) at the item density of
// the repository benchmark's sources: a universe of twice the tuple count.
func benchRelation(seed int64, n int) *relation.Relation {
	rel := relation.NewRelation(propSchema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rel.MustInsert(
			relation.String(fmt.Sprintf("ID%06d", rng.Intn(2*n))),
			relation.Int(int64(rng.Intn(100))),
			relation.String([]string{"x", "y", "yy", "z"}[rng.Intn(4)]),
		)
	}
	return rel
}

// TestSelectAllocs pins what a selection allocates, whatever the
// relation's size and the condition's selectivity: the bound condition and
// nothing else, once the pools are warm. The match vector comes from the
// hit pool, and the answer from the batch pool: its capacity is the pool's
// class for its length, and an answer given back with set.Release is the
// buffer the next answer of its size takes. A semijoin's probe vectors are
// pooled the same way. Under -race the pools drop some of what is put back,
// so there the test checks the capacities only.
func TestSelectAllocs(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2000, 10000} {
		w := NewWrapper("R", NewRowBackend(benchRelation(int64(n), n)), Capabilities{NativeSemijoin: true})
		all, err := w.Select(ctx, cond.True{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pct := range []int{1, 30, 90} {
			c := cond.MustParse(fmt.Sprintf("A < %d", pct))
			bind := testing.AllocsPerRun(20, func() {
				if _, err := c.Bind(propSchema); err != nil {
					t.Fatal(err)
				}
			})
			var got set.Set
			allocs := testing.AllocsPerRun(20, func() {
				got, _ = w.Select(ctx, c)
				set.Release(got)
			})
			if !racetest.Enabled && allocs > bind {
				t.Errorf("tuples=%d sel=%d%%: Select allocates %.0f times, its condition's binding %.0f", n, pct, allocs, bind)
			}
			got, _ = w.Select(ctx, c)
			if items := got.Items(); len(items) == 0 || cap(items) != classCap(len(items)) {
				t.Errorf("tuples=%d sel=%d%%: result has len %d, cap %d, want cap %d", n, pct, len(items), cap(items), classCap(len(items)))
			}
			set.Release(got)
			for _, size := range []int{100, all.Len()} {
				y := set.FromSorted(all.Items()[:size])
				allocs := testing.AllocsPerRun(20, func() {
					got, _ = w.Semijoin(ctx, c, y)
					set.Release(got)
				})
				if !racetest.Enabled && allocs > bind {
					t.Errorf("tuples=%d sel=%d%%: Semijoin of %d items allocates %.0f times, its condition's binding %.0f", n, pct, size, allocs, bind)
				}
				got, _ = w.Semijoin(ctx, c, y)
				if items := got.Items(); len(items) > 0 && cap(items) != classCap(len(items)) {
					t.Errorf("tuples=%d sel=%d%% |y|=%d: result has len %d, cap %d, want cap %d", n, pct, size, len(items), cap(items), classCap(len(items)))
				}
				set.Release(got)
			}
		}
	}
}

// classCap is the capacity of the batch pool's class for n items: the
// least power of two from 16 that holds them.
func classCap(n int) int {
	c := 16
	for c < n {
		c *= 2
	}
	return c
}

// pollCountingCtx counts the looks at its error and dies after a given
// number of them.
type pollCountingCtx struct {
	context.Context
	polls, dieAfter int
}

func (c *pollCountingCtx) Err() error {
	c.polls++
	if c.polls > c.dieAfter {
		return context.Canceled
	}
	return nil
}

// TestSemijoinPollsContextPerBlock: a semijoin looks at its context once per
// block of probes, and a context that dies mid-way stops it at the next
// block, with the source named.
func TestSemijoinPollsContextPerBlock(t *testing.T) {
	w := NewWrapper("R9", NewRowBackend(benchRelation(1, 4000)), Capabilities{NativeSemijoin: true})
	y, err := w.Select(context.Background(), cond.True{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := (y.Len() + probeBlock - 1) / probeBlock
	alive := &pollCountingCtx{Context: context.Background(), dieAfter: y.Len()}
	if got, err := w.Semijoin(alive, cond.True{}, y); err != nil || !got.Equal(y) || alive.polls != blocks {
		t.Fatalf("sjq over %d items: %d polls (want %d, one per block), err %v", y.Len(), alive.polls, blocks, err)
	}
	dying := &pollCountingCtx{Context: context.Background(), dieAfter: 2}
	_, err = w.Semijoin(dying, cond.True{}, y)
	if !errors.Is(err, context.Canceled) || err.Error() != "source R9: context canceled" || dying.polls != 3 {
		t.Fatalf("sjq under a context dying after 2 blocks: err %v after %d polls", err, dying.polls)
	}
}
