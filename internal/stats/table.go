package stats

import (
	"context"
	"fmt"
	"math"
	"strings"

	"fusionq/internal/cond"
	"fusionq/internal/source"
)

// CostTable is the dense (condition × source) matrix of estimated costs and
// cardinalities the optimization algorithms consume. Building it costs
// O(m·n); afterwards every sq_cost / sjq_cost invocation is O(1), matching
// the constant-per-invocation assumption of the paper's complexity analysis
// (Section 3).
type CostTable struct {
	// SourceNames label the columns (R_1..R_n); rows are c_1..c_m.
	SourceNames []string

	// Domain is the estimated number of distinct items in U, the union of
	// all sources. Match fractions are computed against it.
	Domain float64

	// Sq[i][j] is sq_cost(c_i, R_j).
	Sq [][]float64
	// Card[i][j] is the estimated number of items returned by sq(c_i, R_j).
	Card [][]float64
	// SjFixed[i][j] and SjPerItem[i][j] give the affine semijoin cost
	// sjq_cost(c_i, R_j, X) = SjFixed + SjPerItem·|X|. SjFixed is +Inf for
	// sources that cannot evaluate (or emulate) semijoins.
	SjFixed   [][]float64
	SjPerItem [][]float64
	// SjbFixed[i][j] and SjbPerItem[i][j] give the affine Bloom-semijoin
	// cost (the Bloomjoin extension): shipping the filter is cheap per
	// item, but the fixed part charges for receiving the expected false
	// positives among the source's matches. +Inf when unsupported.
	SjbFixed   [][]float64
	SjbPerItem [][]float64
	// Frac[i][j] is the estimated fraction of an arbitrary semijoin set
	// that satisfies c_i at R_j, used to propagate set cardinalities.
	Frac [][]float64
	// Load[j] is lq_cost(R_j); SourceBytes[j] and SourceItems[j] are the
	// source's size in bytes and in distinct items.
	Load        []float64
	SourceBytes []float64
	SourceItems []float64
	// QueryFixed[j] is the fixed per-exchange cost of any query to source j
	// (the profile's PerQuery). The streaming estimator charges it for each
	// continuation chunk of a chunked selection and for each extra probe of
	// a batched native semijoin.
	QueryFixed []float64
	// Support[j] is source j's semijoin capability tier and Conns[j] its
	// connection capacity (≥1); together they let the response-time
	// estimators divide an emulated semijoin's per-binding fan-out across
	// the source's concurrent connections.
	Support []SemijoinSupport
	Conns   []int

	// Invocations counts cost-function evaluations; the complexity
	// experiments (E4) read it to verify the O((m!)·m·n) bound.
	Invocations int
}

// M returns the number of conditions, the table's rows.
func (t *CostTable) M() int { return len(t.Sq) }

// N returns the number of sources.
func (t *CostTable) N() int { return len(t.SourceNames) }

// SelectCost returns sq_cost(c_i, R_j).
func (t *CostTable) SelectCost(i, j int) float64 {
	t.Invocations++
	return t.Sq[i][j]
}

// SemijoinCost returns sjq_cost(c_i, R_j, X) for an estimated |X| of
// setItems.
func (t *CostTable) SemijoinCost(i, j int, setItems float64) float64 {
	t.Invocations++
	if math.IsInf(t.SjFixed[i][j], 1) {
		return math.Inf(1)
	}
	return t.SjFixed[i][j] + t.SjPerItem[i][j]*setItems
}

// ConnsOf returns source j's connection capacity, defaulting to 1 for
// tables that never recorded one.
func (t *CostTable) ConnsOf(j int) int {
	if j < len(t.Conns) && t.Conns[j] > 1 {
		return t.Conns[j]
	}
	return 1
}

// QueryFixedOf returns source j's fixed per-exchange cost, defaulting to 0
// for hand-built tables that never recorded one.
func (t *CostTable) QueryFixedOf(j int) float64 {
	if j < len(t.QueryFixed) {
		return t.QueryFixed[j]
	}
	return 0
}

// SemijoinResponseCost returns the response-time counterpart of
// SemijoinCost: an emulated semijoin's per-binding selections are
// independent exchanges that the parallel executor fans out over the
// source's connections, so the critical path is the per-lane share
// ⌈|X|/k⌉ of the serial per-item cost. Native semijoins are a single
// exchange and gain nothing from extra connections.
func (t *CostTable) SemijoinResponseCost(i, j int, setItems float64) float64 {
	t.Invocations++
	if math.IsInf(t.SjFixed[i][j], 1) {
		return math.Inf(1)
	}
	if k := t.ConnsOf(j); k > 1 && j < len(t.Support) && t.Support[j] == SemijoinEmulated {
		return t.SjFixed[i][j] + t.SjPerItem[i][j]*math.Ceil(setItems/float64(k))
	}
	return t.SjFixed[i][j] + t.SjPerItem[i][j]*setItems
}

// BloomSemijoinCost returns the estimated cost of evaluating c_i at R_j
// against a Bloom filter of a set with setItems items.
func (t *CostTable) BloomSemijoinCost(i, j int, setItems float64) float64 {
	t.Invocations++
	if math.IsInf(t.SjbFixed[i][j], 1) {
		return math.Inf(1)
	}
	return t.SjbFixed[i][j] + t.SjbPerItem[i][j]*setItems
}

// LoadCost returns lq_cost(R_j).
func (t *CostTable) LoadCost(j int) float64 {
	t.Invocations++
	return t.Load[j]
}

// SelectCard returns the estimated |sq(c_i, R_j)|.
func (t *CostTable) SelectCard(i, j int) float64 { return t.Card[i][j] }

// RoundCard estimates |X_i| given |X_{i-1}| = prev: the fraction of the
// running set expected to satisfy c_i at at least one source, bounded by the
// union bound over per-source match fractions.
func (t *CostTable) RoundCard(i int, prev float64) float64 {
	frac := 0.0
	for j := range t.SourceNames {
		frac += t.Frac[i][j]
	}
	if frac > 1 {
		frac = 1
	}
	return prev * frac
}

// FirstRoundCard estimates |X_1| for condition i evaluated first: the union
// of the per-source selection results, bounded by the domain.
func (t *CostTable) FirstRoundCard(i int) float64 {
	sum := 0.0
	for j := range t.SourceNames {
		sum += t.Card[i][j]
	}
	if sum > t.Domain {
		return t.Domain
	}
	return sum
}

// ResetInvocations zeroes the invocation counter.
func (t *CostTable) ResetInvocations() { t.Invocations = 0 }

// Build assembles a CostTable from per-source statistics and cost profiles.
// stats and profiles must be parallel to sources, and each source's CondCard
// must estimate every condition of conds; the table has a row per condition.
// Its seven matrices and four per-source vectors share one backing array and
// the matrices' rows one array of row headers, so a table is the same
// handful of allocations whatever its size.
func Build(conds []cond.Cond, stats []SourceStats, profiles []SourceProfile) (*CostTable, error) {
	n := len(stats)
	if len(profiles) != n {
		return nil, fmt.Errorf("stats: %d stats but %d profiles", n, len(profiles))
	}
	m := len(conds)
	for _, st := range stats {
		if len(st.CondCard) < m {
			return nil, fmt.Errorf("stats: %s has cardinalities for %d conditions, want %d", st.Name, len(st.CondCard), m)
		}
	}
	const matrices, vectors = 7, 4
	cells, rows := make([]float64, matrices*m*n+vectors*n), make([][]float64, matrices*m)
	matrix := func() [][]float64 {
		out := rows[:m:m]
		for i := range out {
			out[i], cells = cells[:n:n], cells[n:]
		}
		rows = rows[m:]
		return out
	}
	vector := func() []float64 {
		out := cells[:n:n]
		cells = cells[n:]
		return out
	}
	t := &CostTable{
		SourceNames: make([]string, n),
		Sq:          matrix(),
		Card:        matrix(),
		SjFixed:     matrix(),
		SjPerItem:   matrix(),
		SjbFixed:    matrix(),
		SjbPerItem:  matrix(),
		Frac:        matrix(),
		Load:        vector(),
		SourceBytes: vector(),
		SourceItems: vector(),
		QueryFixed:  vector(),
		Support:     make([]SemijoinSupport, n),
		Conns:       make([]int, n),
	}
	domain := 0.0
	for j, st := range stats {
		t.SourceNames[j] = st.Name
		domain += float64(st.DistinctItems)
	}
	// Distinct items overlap across sources; without global knowledge we
	// take the sum as an upper bound and never divide by zero.
	if domain < 1 {
		domain = 1
	}
	t.Domain = domain
	for j := range stats {
		st, p := stats[j], profiles[j]
		t.Load[j] = p.LoadCost(float64(st.Bytes))
		t.SourceBytes[j] = float64(st.Bytes)
		t.SourceItems[j] = float64(st.DistinctItems)
		t.Support[j] = p.Support
		t.Conns[j] = p.Conns()
		t.QueryFixed[j] = p.PerQuery
		for i := range conds {
			card := st.CondCard[i]
			frac := card / domain
			t.Card[i][j] = card
			t.Frac[i][j] = frac
			t.Sq[i][j] = p.SelectCost(card)
			switch p.Support {
			case SemijoinNative:
				t.SjFixed[i][j] = p.PerQuery
				t.SjPerItem[i][j] = p.PerItemSent + p.PerItemRecv*frac
			case SemijoinEmulated:
				t.SjFixed[i][j] = 0
				t.SjPerItem[i][j] = p.PerQuery + p.PerItemSent + p.PerItemRecv*frac
			default:
				t.SjFixed[i][j] = math.Inf(1)
				t.SjPerItem[i][j] = math.Inf(1)
			}
			if p.BloomBitsPerItem > 0 {
				// Decompose the affine BloomSemijoinCost: the fixed part
				// is the per-query cost plus the expected false-positive
				// reception; the per-item part ships filter bits and
				// receives true matches.
				t.SjbFixed[i][j] = p.BloomSemijoinCost(0, frac, card)
				t.SjbPerItem[i][j] = p.BloomSemijoinCost(1, frac, card) - t.SjbFixed[i][j]
			} else {
				t.SjbFixed[i][j] = math.Inf(1)
				t.SjbPerItem[i][j] = math.Inf(1)
			}
		}
	}
	return t, nil
}

// BuildFromSources gathers exact statistics from the given sources and
// assembles the table with the given profiles.
func BuildFromSources(ctx context.Context, conds []cond.Cond, sources []source.Source, profiles []SourceProfile) (*CostTable, error) {
	sts := make([]SourceStats, len(sources))
	for j, src := range sources {
		st, err := Gather(ctx, src, conds)
		if err != nil {
			return nil, err
		}
		sts[j] = st
	}
	return Build(conds, sts, profiles)
}

// UniformProfiles builds n copies of a profile, named after the sources.
func UniformProfiles(names []string, base SourceProfile) []SourceProfile {
	out := make([]SourceProfile, len(names))
	for i, name := range names {
		p := base
		p.Name = name
		out[i] = p
	}
	return out
}

// String renders the table's costs and cardinalities for debugging and
// EXPLAIN-style tooling.
func (t *CostTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost table: %d conditions × %d sources, domain ≈ %.0f items\n", t.M(), t.N(), t.Domain)
	for i := range t.Sq {
		fmt.Fprintf(&b, "%s:\n", condLabel(i))
		for j := range t.SourceNames {
			sj := "∞"
			if !math.IsInf(t.SjFixed[i][j], 1) {
				sj = fmt.Sprintf("%.4g + %.4g·|X|", t.SjFixed[i][j], t.SjPerItem[i][j])
			}
			sjb := "∞"
			if !math.IsInf(t.SjbFixed[i][j], 1) {
				sjb = fmt.Sprintf("%.4g + %.4g·|X|", t.SjbFixed[i][j], t.SjbPerItem[i][j])
			}
			fmt.Fprintf(&b, "  %-6s card %.4g  sq %.4g  sjq %s  sjq-bloom %s\n",
				t.SourceNames[j], t.Card[i][j], t.Sq[i][j], sj, sjb)
		}
	}
	for j := range t.SourceNames {
		fmt.Fprintf(&b, "lq(%s) = %.4g (%.0f bytes, %.0f items)\n",
			t.SourceNames[j], t.Load[j], t.SourceBytes[j], t.SourceItems[j])
	}
	return b.String()
}

func condLabel(i int) string { return fmt.Sprintf("c%d", i+1) }
