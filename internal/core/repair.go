package core

// Mid-query roster repair. When a logical source's replicas are all
// exhausted mid-query (fabric.ExhaustedError), the mediator does not have
// to discard the rounds that already completed: fusion-query semantics are
// monotone per condition — an item is in the answer iff for EACH condition
// SOME source satisfies it — so the running set after the last completed
// round is a correct upper bound on the answer, and the remaining
// conditions can be re-planned as a fresh fusion query over the surviving
// sources. The repaired answer is
//
//	seed ∩ answer(pending conditions, survivors)
//
// which is bracketed by the honest envelope
//
//	answer(all conditions, survivors) ⊆ repaired ⊆ answer(all conditions, full roster):
//
// completed rounds keep the dead source's contributions (lower bound is
// strict whenever they mattered), while pending conditions can no longer
// count items only the dead source satisfied (upper bound). The repair is
// a partial answer in that precise sense, reported via Answer.Repair.
//
// Every plan repairs the same way. An adaptive plan's completed rounds are
// those it decided and ran, and the conditions it never placed are pending
// with the rest. A query that wanted records gets them, once the repaired
// answer is known, from the survivors.

import (
	"context"
	"errors"
	"fmt"

	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/obs"
	"fusionq/internal/plan"
	"fusionq/internal/set"
)

// RepairInfo describes how a query's roster was repaired mid-flight.
type RepairInfo struct {
	// Dead lists the logical sources whose replica sets were exhausted and
	// that were dropped from the roster, in the order they died.
	Dead []string
	// Replans is how many re-planning rounds ran (more than one when
	// another source died during a repair execution).
	Replans int
	// Partial reports that the answer may omit items only the dead sources
	// could have vouched for on the re-planned conditions. It is always
	// true for a repaired query; completed rounds retain the dead sources'
	// contributions.
	Partial bool
}

// splitCompleted divides an interrupted run of plan p into what finished and
// what remains. Rounds are the plan's (plan.Flow.RoundEnd); a round is
// complete when every one of its steps precedes the first failed step
// (exec.Result.FailedStep is the minimum failed index, so everything before
// it succeeded). The seed is the running set after the last completed
// round: the output of its last step, or the result when every round
// completed. Conditions not in a completed round are pending, whether or
// not the plan staged them (an adaptive plan stages a round only once it
// decides it). When the structure cannot be recovered (no failed step
// recorded, streaming runs that keep no variables, seed variable missing),
// it falls back to a conservative full re-plan: no seed, all conditions
// pending.
func splitCompleted(p *plan.Plan, run *exec.Result) (seed set.Set, hasSeed bool, pending []cond.Cond) {
	all := append([]cond.Cond(nil), p.Conds...)
	if run.FailedStep <= 0 || run.Vars == nil {
		return set.Set{}, false, all
	}
	f := p.Flow()
	// Steps [0, through) are the completed rounds'; seedStep made the seed.
	seedStep, through := f.Result, len(p.Steps)
	if run.FailedStep < len(p.Steps) {
		seedStep = run.FailedStep - 1
		for seedStep >= 0 && !f.RoundEnd[seedStep] {
			seedStep--
		}
		through = seedStep + 1
	}
	if seedStep < 0 {
		return set.Set{}, false, all
	}
	seed, ok := run.Vars[p.Steps[seedStep].Out]
	if !ok {
		return set.Set{}, false, all
	}
	done := make([]bool, len(p.Conds))
	for _, s := range p.Steps[:through] {
		if s.Cond >= 0 {
			done[s.Cond] = true
		}
	}
	for ci, c := range p.Conds {
		if !done[ci] {
			pending = append(pending, c)
		}
	}
	return seed, true, pending
}

// mergeExec folds the counters of a repair execution into the original
// run's, so Answer.Exec reports the query's total traffic and work.
func mergeExec(dst, src *exec.Result) {
	if src == nil {
		return
	}
	dst.SourceQueries += src.SourceQueries
	dst.TotalWork += src.TotalWork
	dst.ResponseTime += src.ResponseTime
	dst.Retries += src.Retries
	dst.Failovers += src.Failovers
	dst.Hedges += src.Hedges
	if src.PeakBytes > dst.PeakBytes {
		dst.PeakBytes = src.PeakBytes
	}
}

// tryRepair attempts mid-query roster repair after the run of a plan failed
// with cause. It handles only fabric exhaustion (every replica of a logical
// source failed); any other failure is left to the caller's partial-answer
// path. Returns handled=false when repair does not apply.
//
// The loop survives cascading deaths: when another logical source is
// exhausted during a repair execution, its completed rounds tighten the
// seed and the loop re-plans the still-pending conditions over the
// remaining survivors. It is bounded by the roster size. The re-plans
// compute items; when the plan wanted records, they are fetched from the
// survivors once the repaired answer is known (exec.FetchAnswer, outside
// Answer.Exec's counters).
func (m *Mediator) tryRepair(ctx context.Context, r *roster, opts Options, run *exec.Result, estCost float64, cause error) (*Answer, error, bool) {
	if run == nil {
		return nil, nil, false
	}
	var exh *fabric.ExhaustedError
	if !errors.As(cause, &exh) {
		return nil, nil, false
	}

	rctx, rspan := obs.StartSpan(ctx, obs.KindPhase, "repair")
	met := obs.Meter(rctx)
	info := &RepairInfo{Partial: true}
	total := &exec.Result{Vars: run.Vars, FailedStep: -1}
	mergeExec(total, run)
	opts.Records = false

	p := run.Plan
	seed, hasSeed, pending := splitCompleted(p, run)
	cur := r
	dead := exh.Source
	var err error
	repaired := false
	for range r.sources {
		info.Dead = append(info.Dead, dead)
		cur = cur.without(dead)
		if len(cur.sources) == 0 {
			err = fmt.Errorf("core: repair: no sources survive: %w", cause)
			break
		}
		if len(pending) == 0 {
			// Every condition completed before the death was observed; the
			// seed is the answer.
			total.Answer, repaired = seed, true
			break
		}

		info.Replans++
		met.Counter(obs.MReplans, "dead", dead).Inc()
		res, perr := m.plan(rctx, cur, pending, opts)
		if perr != nil {
			err = fmt.Errorf("core: repair re-plan: %w", perr)
			break
		}
		rerun, rerr := cur.executor(opts).Run(rctx, res.Plan)
		mergeExec(total, rerun)
		if rerr == nil {
			total.Answer, repaired = rerun.Answer, true
			if hasSeed {
				total.Answer = total.Answer.Intersect(seed)
			}
			break
		}
		var again *fabric.ExhaustedError
		if !errors.As(rerr, &again) {
			err = rerr
			break
		}
		// Another logical source died during the repair run: keep its
		// completed rounds and re-plan what is still pending.
		s2, has2, pend2 := splitCompleted(rerun.Plan, rerun)
		if has2 {
			if hasSeed {
				seed = seed.Intersect(s2)
			} else {
				seed, hasSeed = s2, true
			}
		}
		pending = pend2
		dead = again.Source
	}
	ans := &Answer{Items: total.Answer, Plan: p, EstimatedCost: estCost, Exec: total, Repair: info}
	switch {
	case !repaired && err == nil:
		err = fmt.Errorf("core: repair did not converge: %w", cause)
	case repaired && p.Records != plan.NoRecords:
		ans.Records, err = exec.FetchAnswer(rctx, total.Answer, cur.sources)
	}
	rspan.End(err)
	return ans, err, true
}
