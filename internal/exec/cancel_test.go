package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/source"
)

// bindingCounter tallies the SelectBinding calls that reach the wrapped
// source, including attempts the source then fails or aborts.
type bindingCounter struct {
	source.Source
	bindings atomic.Int64
}

func (b *bindingCounter) SelectBinding(ctx context.Context, c cond.Cond, item string) (bool, error) {
	b.bindings.Add(1)
	return b.Source.SelectBinding(ctx, c, item)
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if it never does: a worker leaked.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d, want <= %d; executor leaked workers:\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidEmulatedSemijoin cancels a query while its emulated
// semijoin's binding fan-out is in flight and checks the lifecycle
// contract: the run stops promptly instead of draining the remaining
// bindings, no worker goroutines leak, the error identifies
// context.Canceled through every layer, and the partial Result still
// charges every binding attempt that reached the source.
func TestCancelMidEmulatedSemijoin(t *testing.T) {
	// One connection issues the bindings one after another, two fan them out.
	for name, conns := range map[string]int{"sequential": 1, "parallel": 2} {
		t.Run(name, func(t *testing.T) {
			pr, srcs, network := dmvSetup(t, semijoinCaps)
			// Each binding stalls 30ms (honoring ctx), so the fan-out is
			// mid-flight when the cancel lands.
			counter := &bindingCounter{
				Source: source.NewFlaky(srcs[1], 0, 1).SetStallFor("binding", 30*time.Millisecond),
			}
			srcs[1] = counter
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(15 * time.Millisecond)
				cancel()
			}()

			ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, conns), Retries: 3}
			start := time.Now()
			res, err := ex.Run(ctx, semijoinPlan(pr.Conds, pr.Sources))
			elapsed := time.Since(start)
			wg.Wait()

			if err == nil {
				t.Fatal("cancelled run completed without error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
			}
			if source.IsTransient(err) {
				t.Fatalf("cancellation classified transient (would be retried): %v", err)
			}
			// Prompt: a full drain of the remaining bindings would take
			// several stall periods; the cancel must cut that short.
			if elapsed > time.Second {
				t.Fatalf("cancelled run returned after %v; cancellation is not prompt", elapsed)
			}
			if res == nil {
				t.Fatal("cancelled run returned a nil Result; partial accounting lost")
			}
			// Every binding attempt that reached the source is charged,
			// plus the round-1 selection that completed before the cancel.
			reached := int(counter.bindings.Load())
			if want := 1 + reached; res.SourceQueries != want {
				t.Fatalf("SourceQueries = %d, want %d (1 selection + %d binding attempts that reached the source)",
					res.SourceQueries, want, reached)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestDeadlineMidEmulatedSemijoin runs the same fan-out under a deadline
// instead of an explicit cancel: the run must return around the deadline —
// not after the stalled bindings would have drained — with the error
// identifying context.DeadlineExceeded and the partial work charged.
func TestDeadlineMidEmulatedSemijoin(t *testing.T) {
	pr, srcs, network := dmvSetup(t, semijoinCaps)
	// Stall each binding far beyond the deadline: only the deadline can
	// explain a prompt return.
	counter := &bindingCounter{
		Source: source.NewFlaky(srcs[1], 0, 1).SetStallFor("binding", 10*time.Second),
	}
	srcs[1] = counter
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ex := &Executor{Sources: srcs, Network: linkConns(network, pr.Sources, 2), Retries: 3}
	start := time.Now()
	res, err := ex.Run(ctx, semijoinPlan(pr.Conds, pr.Sources))
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline run returned after %v against a 10s stall", elapsed)
	}
	if res == nil {
		t.Fatal("deadline run returned a nil Result")
	}
	reached := int(counter.bindings.Load())
	if want := 1 + reached; res.SourceQueries != want {
		t.Fatalf("SourceQueries = %d, want %d (1 selection + %d binding attempts)",
			res.SourceQueries, want, reached)
	}
	waitGoroutines(t, before)
}
