package exec

import (
	"context"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
)

// adapt runs an adaptive plan (optimizer.Adaptive): mid-query
// re-optimization, the runtime counterpart of the paper's observation that
// SJA is only a heuristic under condition dependence (Section 1, E15). The
// static algorithms commit to an ordering and to per-source methods from
// estimated running-set sizes; here each decision waits until |X| is
// measured. The next condition and each source's method are the optimizer's
// decisions (HeadCondition, NextRound, the ones GreedyAdaptiveSJA takes from
// estimates) against the measured |X|, and a drained running set ends the
// query. Each round's steps are the canonical plan's (AppendRound), appended
// to the run's plan and run by the round scheduler, so counters, trace and
// FailedStep mean what they mean for any plan; there is a barrier between
// rounds whatever the Streaming flag says. The last round is known before it
// runs, so a plan that wants its final round's records gets them.
func (r *run) adapt(ctx context.Context) error {
	executed, t := r.p, r.table
	m := len(executed.Conds)
	placed := make([]bool, m)
	var sk optimizer.Sketch // the rounds decided so far
	next, methods := optimizer.HeadCondition(t), make([]optimizer.Method, len(executed.Sources))
	for i := 1; ; i++ {
		placed[next] = true
		sk.Ordering = append(sk.Ordering, next)
		sk.Choices = append(sk.Choices, methods)
		if i == m && r.sink != nil && executed.Records == plan.FinalRecords {
			r.sink.final = next
		}
		from := len(executed.Steps)
		executed.Steps = optimizer.AppendRound(executed.Steps, sk, i)
		executed.Result = executed.Steps[len(executed.Steps)-1].Out
		if err := r.runSteps(ctx, from); err != nil {
			return err
		}
		// A drained set answers all remaining conditions vacuously with ∅.
		// The round's last step made the running set.
		x := r.life.vers[len(executed.Steps)-1].val
		if i == m || x.IsEmpty() {
			return nil
		}
		next, methods, _ = optimizer.NextRound(t, placed, float64(x.Len()))
	}
}
