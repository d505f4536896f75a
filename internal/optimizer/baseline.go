package optimizer

import (
	"math"
)

// This file implements the Section 5 baseline: how resolution-based optimizer
// architectures process fusion queries. It exists so the experiments can
// quantify what the paper argues qualitatively.

// JoinOverUnionReport describes what a resolution-based optimizer
// (Information Manifold, TSIMMIS, HERMES, Infomaster) does with a fusion
// query: it distributes the m-way join over the n-way unions, producing one
// SPJ subquery per combination of sources — n^m subqueries. Without common
// subexpression elimination each subquery issues its own m selection
// queries; with (expensive) CSE the plan collapses to the filter plan.
type JoinOverUnionReport struct {
	// Subqueries is n^m, the number of SPJ subqueries after distribution.
	Subqueries float64
	// NaiveSourceQueries is m·n^m, the selection queries issued without
	// common subexpression elimination.
	NaiveSourceQueries float64
	// NaiveCost is the estimated total cost without CSE: every (condition,
	// source) selection is re-issued n^{m-1} times.
	NaiveCost float64
	// CSE is the result after common subexpression elimination: the filter
	// plan, costing the same as FILTER's output.
	CSE Result
}

// JoinOverUnion builds the join-over-union baseline report.
func JoinOverUnion(pr *Problem) (JoinOverUnionReport, error) {
	if err := pr.Validate(); err != nil {
		return JoinOverUnionReport{}, err
	}
	m, n := len(pr.Conds), len(pr.Sources)
	filterRes, err := Filter(pr)
	if err != nil {
		return JoinOverUnionReport{}, err
	}
	sub := math.Pow(float64(n), float64(m))
	rep := JoinOverUnionReport{
		Subqueries:         sub,
		NaiveSourceQueries: float64(m) * sub,
		// Each distinct sq(c_i, R_j) appears in n^{m-1} subqueries.
		NaiveCost: filterRes.Cost * math.Pow(float64(n), float64(m-1)),
		CSE:       filterRes,
	}
	return rep, nil
}
