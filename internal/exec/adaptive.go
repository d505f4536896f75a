package exec

import (
	"context"
	"fmt"
	"math"

	"fusionq/internal/optimizer"
	"fusionq/internal/plan"
	"fusionq/internal/set"
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
// round is built as plan steps and run by the same scheduler Run uses
// (sequentially, or the round's source queries at once in parallel mode),
// so counters, trace, failover accounting and FailedStep mean what they
// mean there, with step indexes into the executed plan.
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

// adapt chooses and runs the rounds of an adaptive execution, growing the
// run's plan as it goes.
func (r *run) adapt(ctx context.Context, t *stats.CostTable) error {
	executed := r.p
	m, n := len(executed.Conds), len(executed.Sources)
	// round appends round i's steps to the executed plan, runs them, and
	// returns the running set they leave in variable X<i>.
	round := func(i, ci int, methods []optimizer.Method) (set.Set, error) {
		from := len(executed.Steps)
		executed.Steps = append(executed.Steps, roundSteps(i, ci, methods)...)
		executed.Result = fmt.Sprintf("X%d", i)
		err := r.runSteps(ctx, from)
		return r.vars[executed.Result], err
	}

	// First round: cheapest estimated selections relative to the set they
	// leave behind (most selective first, cost as tiebreak).
	first, bestCost, bestCard := -1, math.Inf(1), math.Inf(1)
	for i := 0; i < m; i++ {
		c := 0.0
		for j := 0; j < n; j++ {
			c += t.Sq[i][j]
		}
		card := t.FirstRoundCard(i)
		if card < bestCard || (card == bestCard && c < bestCost) {
			first, bestCost, bestCard = i, c, card
		}
	}
	placed := make([]bool, m)
	placed[first] = true
	methods := make([]optimizer.Method, n)
	for j := range methods {
		methods[j] = optimizer.MethodSelect
	}
	x, err := round(1, first, methods)

	for i := 2; err == nil && i <= m && !x.IsEmpty(); i++ {
		// Pick the next condition against the MEASURED |X|.
		measured := float64(x.Len())
		next, nextCost := -1, math.Inf(1)
		for c := 0; c < m; c++ {
			if placed[c] {
				continue
			}
			roundCost := 0.0
			choice := make([]optimizer.Method, n)
			for j := 0; j < n; j++ {
				method, cost := optimizer.BestMethod(t, c, j, measured)
				choice[j] = method
				roundCost += cost
			}
			if roundCost < nextCost {
				next, nextCost, methods = c, roundCost, choice
			}
		}
		placed[next] = true
		x, err = round(i, next, methods)
	}
	// A drained set answers all remaining conditions vacuously with ∅.
	return err
}

// roundSteps writes round i of an adaptive execution — condition ci, each
// source queried by its chosen method — in the canonical plans' shape: the
// per-source queries X<i><j>, their union X<i>, and, when some source was
// asked a plain selection, the intersection with the running set X<i-1>
// that the semijoins apply at the source.
func roundSteps(i, ci int, methods []optimizer.Method) []plan.Step {
	prev, out := fmt.Sprintf("X%d", i-1), fmt.Sprintf("X%d", i)
	var steps []plan.Step
	var selVars, sjVars []string
	for j, method := range methods {
		s := plan.Step{Out: fmt.Sprintf("X%d%d", i, j+1), Cond: ci, Source: j}
		switch method {
		case optimizer.MethodSelect:
			s.Kind = plan.KindSelect
			selVars = append(selVars, s.Out)
		case optimizer.MethodBloom:
			s.Kind, s.In = plan.KindBloomSemijoin, []string{prev}
			sjVars = append(sjVars, s.Out)
		default:
			s.Kind, s.In = plan.KindSemijoin, []string{prev}
			sjVars = append(sjVars, s.Out)
		}
		steps = append(steps, s)
	}
	steps = append(steps, plan.Step{Kind: plan.KindUnion, Out: out, Cond: -1, Source: -1, In: append(selVars, sjVars...)})
	if i > 1 && len(selVars) > 0 {
		steps = append(steps, plan.Step{Kind: plan.KindIntersect, Out: out, Cond: -1, Source: -1, In: []string{out, prev}})
	}
	return steps
}
