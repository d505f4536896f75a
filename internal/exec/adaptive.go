package exec

import (
	"context"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/stats"
)

// RunAdaptive executes a fusion query with mid-query re-optimization: the
// static algorithms of Section 3 commit to an ordering and to per-source
// method choices using estimated running-set sizes, but at run time the
// mediator knows |X_i| exactly after every round. Adaptive execution defers
// each decision until its inputs are measured:
//
//   - the next condition is the unprocessed one whose round costs least
//     against the measured |X|;
//   - each source's method (selection / semijoin / Bloom semijoin) is chosen
//     with the measured |X| as the semijoin-set size;
//   - a drained running set ends the query immediately.
//
// This is the runtime counterpart of the paper's observation that SJA is
// only a heuristic under condition dependence (Section 1): when estimates
// mislead, measured cardinalities correct course round by round
// (experiment E15). The executed steps are recorded as a plan in Result
// form for inspection.
//
// Adaptive execution is round-scheduled by construction: a round is chosen
// from the measured size of the set the round before left, so there is a
// barrier between rounds whatever the executor's Streaming flag says. Each
// round is built as plan steps and run by the same scheduler Run uses (the
// round's source queries at once), so counters, trace, failover accounting
// and FailedStep mean what they mean there, with step indexes into the
// executed plan.
//
// Like Run, a failed or cancelled execution returns a non-nil Result whose
// counters report the work already performed, with the error wrapping the
// cause; the executed plan then ends with the round that failed.
func (e *Executor) RunAdaptive(ctx context.Context, pr *optimizer.Problem) (*Result, *plan.Plan, error) {
	if err := pr.Validate(); err != nil {
		return nil, nil, err
	}
	if err := e.checkRoster("problem", pr.Sources); err != nil {
		return nil, nil, err
	}
	executed := &plan.Plan{Conds: pr.Conds, Sources: pr.Sources, Class: "adaptive"}
	r := e.newRun(executed, false)
	return r.res, executed, r.rounds(ctx, func() error { return r.adapt(ctx, pr.Table) })
}

// adapt runs the rounds of an adaptive execution, growing the run's plan as
// it goes. Which condition is next and how each source is asked are the
// optimizer's decisions (HeadCondition, NextRound, the ones
// GreedyAdaptiveSJA makes from estimates), taken here against the measured
// size of the running set; the round's steps are the canonical plan's
// (AppendRound).
func (r *run) adapt(ctx context.Context, t *stats.CostTable) error {
	executed := r.p
	m := len(executed.Conds)
	placed := make([]bool, m)
	var sk optimizer.Sketch // the rounds decided so far
	next, methods := optimizer.HeadCondition(t), make([]optimizer.Method, len(executed.Sources))
	for i := 1; ; i++ {
		placed[next] = true
		sk.Ordering = append(sk.Ordering, next)
		sk.Choices = append(sk.Choices, methods)
		from := len(executed.Steps)
		executed.Steps = optimizer.AppendRound(executed.Steps, sk, i)
		executed.Result = executed.Steps[len(executed.Steps)-1].Out
		if err := r.runSteps(ctx, from); err != nil {
			return err
		}
		// A drained set answers all remaining conditions vacuously with ∅.
		x := r.vars[executed.Result]
		if i == m || x.IsEmpty() {
			return nil
		}
		next, methods, _ = optimizer.NextRound(t, placed, float64(x.Len()))
	}
}
