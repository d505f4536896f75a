package optimizer

// Algorithm is one row of the package's table of algorithms: the name a
// caller selects it by, its entry point, and whether its rounds are decided
// at run time, which leaves a plan cache nothing to reuse.
type Algorithm struct {
	Name     string
	Plan     func(*Problem) (Result, error)
	Adaptive bool
}

// Algorithms is the table every by-name user reads (core.Algorithm, the
// oracle's plan classes, the README's list), in the order they report it.
// A new strategy is a rule or an ordering (search.go) plus a row here. It
// is never written after package initialization.
var Algorithms = []Algorithm{
	{"filter", Filter, false},
	{"sj", SJ, false},
	{"sja", SJA, false},
	{"sja+", SJAPlus, false},
	{"greedy-sj", GreedySJ, false},
	{"greedy-sja", GreedySJA, false},
	{"greedy-adaptive-sja", GreedyAdaptiveSJA, false},
	{"greedy-sja+", GreedySJAPlus, false},
	{"rt-sja", ResponseTimeSJA, false},
	{"adaptive", Adaptive, true},
}

// Adaptive is adaptive execution (E15) as a row: GreedyAdaptiveSJA's plan
// and cost are its estimate, and the plan carries the problem's table, from
// which the executor decides each round with NextRound against the measured
// running set. The table counts its invocations, so a run needs its own.
func Adaptive(pr *Problem) (Result, error) {
	res, err := GreedyAdaptiveSJA(pr)
	if err != nil {
		return Result{}, err
	}
	res.Plan.Class, res.Sketch.Class = "adaptive", "adaptive"
	res.Plan.Adaptive = pr.Table
	return res, nil
}
