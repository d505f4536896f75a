package optimizer

// Algorithm is one row of the package's table of algorithms: the name a
// caller selects it by and its entry point.
type Algorithm struct {
	Name string
	Plan func(*Problem) (Result, error)
}

// Algorithms is the table every by-name user reads (core.Algorithm, the
// oracle's plan classes, the README's list), in the order they report it.
// A new strategy is a rule or an ordering (search.go) plus a row here. It
// is never written after package initialization.
var Algorithms = []Algorithm{
	{"filter", Filter},
	{"sj", SJ},
	{"sja", SJA},
	{"sja+", SJAPlus},
	{"greedy-sj", GreedySJ},
	{"greedy-sja", GreedySJA},
	{"greedy-adaptive-sja", GreedyAdaptiveSJA},
	{"greedy-sja+", GreedySJAPlus},
	{"rt-sja", ResponseTimeSJA},
}
