package exec

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fusionq/internal/netsim"
	"fusionq/internal/plan"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// accountingFixture is a round-scheduled run over the DMV roster on a
// network whose log already carries prior exchanges of other callers, as it
// does after that many source queries of a long-running service.
func accountingFixture(prior int) (*run, *netsim.Network) {
	sc := workload.DMV()
	network := netsim.NewNetwork(1)
	srcs := make([]source.Source, len(sc.Sources))
	for j, s := range sc.Sources {
		srcs[j] = source.Instrument(s, network)
	}
	fillLog(network, prior)
	e := &Executor{Sources: srcs, Network: network}
	return e.newRun(&plan.Plan{Sources: sc.SourceNames()}), network
}

func fillLog(network *netsim.Network, prior int) {
	network.Reset()
	for i := 0; i < prior; i++ {
		network.Exchange(context.Background(), "R1", "sq", 40, 400)
	}
}

// accountBatch is the accounting of one round of source queries: one
// exchange per source under the run's ledger, as runNode issues them, then
// what runBatch does when the round is over. It returns the round's critical
// path.
func accountBatch(r *run, network *netsim.Network) time.Duration {
	before := r.res.ResponseTime
	for j, name := range r.p.Sources {
		network.Exchange(netsim.WithLedger(context.Background(), r.ledger, j), name, "sq", 40, 400)
	}
	r.settle()
	return r.res.ResponseTime - before
}

// TestBatchAccountingIgnoresLogLength pins that planned execution does not
// pay for the network's exchange history: a batch's accounting allocates the
// same whether the log holds nothing or 2 000 earlier exchanges, and charges
// the same critical path. Reading the log would show in the bytes (112 KB a
// copy at 2 000 entries); the allowance covers the log's own growth as the
// runs append to it.
func TestBatchAccountingIgnoresLogLength(t *testing.T) {
	const runs = 200
	var allocs, bytes [2]float64
	var critical [2]time.Duration
	for i, prior := range []int{0, 2000} {
		e, network := accountingFixture(prior)
		allocs[i] = testing.AllocsPerRun(runs, func() { critical[i] = accountBatch(e, network) })
		fillLog(network, prior)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			critical[i] = accountBatch(e, network)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	if allocs[0] != allocs[1] {
		t.Errorf("accounting allocates %.0f times on an empty log and %.0f times after 2000 exchanges", allocs[0], allocs[1])
	}
	if bytes[1] > bytes[0]+8<<10 {
		t.Errorf("accounting allocates %.0f B on an empty log and %.0f B after 2000 exchanges", bytes[0], bytes[1])
	}
	if critical[0] != critical[1] || critical[0] <= 0 {
		t.Errorf("critical path %v on an empty log, %v after 2000 exchanges", critical[0], critical[1])
	}
}

var sinkDuration time.Duration

func BenchmarkBatchAccounting(b *testing.B) {
	for _, prior := range []int{0, 2000} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			e, network := accountingFixture(prior)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The log keeps what the batches add; refill it now and
				// then so it stays near the stated length.
				if i%512 == 511 {
					b.StopTimer()
					fillLog(network, prior)
					b.StartTimer()
				}
				sinkDuration = accountBatch(e, network)
			}
		})
	}
}
