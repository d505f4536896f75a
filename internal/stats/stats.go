// Package stats implements the statistics gathering and cost estimation the
// fusion-query optimizers rely on. The paper (Section 3) abstracts these as
// cost functions sq_cost(c_i, R_j) and sjq_cost(c_i, R_j, X) that "can use
// whatever information is available at query optimization time"; the only
// requirements (Section 2.4) are non-negativity and subadditivity of
// semijoin costs under splitting of the semijoin set.
//
// The package provides:
//
//   - SourceProfile: per-source cost parameters (per-query overhead,
//     per-item transfer costs, semijoin support tier), derivable from a
//     simulated network link so that estimated costs line up with measured
//     simulated time;
//   - cardinality estimation from the summary a source ships once
//     (summary.go), which is what planning runs on, and exact by probing
//     (Gather), which is the reference the estimates are tested against;
//   - CostTable: the dense (condition × source) matrix of costs and
//     cardinalities the optimization algorithms consume.
package stats

import (
	"context"
	"fmt"
	"math"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/source"
)

// SemijoinSupport is a source's semijoin capability tier (Section 2.3).
type SemijoinSupport int

const (
	// SemijoinNative: the source evaluates sjq directly.
	SemijoinNative SemijoinSupport = iota
	// SemijoinEmulated: the mediator emulates sjq with one passed-binding
	// selection per item.
	SemijoinEmulated
	// SemijoinNone: no semijoin is possible; sjq_cost is +Inf.
	SemijoinNone
)

// String names the support tier.
func (s SemijoinSupport) String() string {
	switch s {
	case SemijoinNative:
		return "native"
	case SemijoinEmulated:
		return "emulated"
	case SemijoinNone:
		return "none"
	default:
		return fmt.Sprintf("SemijoinSupport(%d)", int(s))
	}
}

// SupportOf maps wrapper capabilities to the cost model's tier.
func SupportOf(caps source.Capabilities) SemijoinSupport {
	switch {
	case caps.NativeSemijoin:
		return SemijoinNative
	case caps.PassedBindings:
		return SemijoinEmulated
	default:
		return SemijoinNone
	}
}

// SourceProfile carries the per-source parameters of the cost model. All
// costs are in abstract cost units; when derived from a netsim.Link via
// ProfileFromLink the unit is one second of simulated time, which lets
// experiments compare estimated cost with measured simulated time directly.
type SourceProfile struct {
	Name string
	// PerQuery is the fixed cost of any query to this source (connection,
	// parsing, round-trip latency).
	PerQuery float64
	// PerItemSent is the cost of shipping one semijoin-set item to the
	// source.
	PerItemSent float64
	// PerItemRecv is the cost of receiving one result item.
	PerItemRecv float64
	// PerByteLoad is the cost per byte of loading the source with lq.
	PerByteLoad float64
	// Support is the source's semijoin capability tier.
	Support SemijoinSupport
	// ItemBytes is the average wire size of one item, used to convert
	// per-item transfer costs into per-byte costs for Bloom filters.
	// Zero defaults to 8.
	ItemBytes float64
	// BloomBitsPerItem, when positive, marks the source as accepting
	// Bloom-filter semijoins (the Bloomjoin extension) with filters sized
	// at this many bits per set item.
	BloomBitsPerItem int
	// MaxConns is the number of concurrent exchanges the source sustains
	// (netsim.Link.MaxConns). Zero or one means a single connection. The
	// response-time estimators divide an emulated semijoin's per-binding
	// fan-out across this many connections; single-exchange operations gain
	// nothing from extra connections.
	MaxConns int
}

// Conns returns the profile's effective connection capacity (at least 1).
func (p SourceProfile) Conns() int {
	if p.MaxConns < 1 {
		return 1
	}
	return p.MaxConns
}

// ProfileFromLink derives a profile whose unit is seconds of simulated time
// on the given link; avgItemBytes sizes items for the per-item terms.
func ProfileFromLink(name string, l netsim.Link, avgItemBytes float64, sup SemijoinSupport) SourceProfile {
	perByte := 0.0
	if l.BytesPerSec > 0 {
		perByte = 1.0 / l.BytesPerSec
	}
	return SourceProfile{
		Name:        name,
		PerQuery:    (2*l.Latency + l.RequestOverhead).Seconds(),
		PerItemSent: perByte * avgItemBytes,
		PerItemRecv: perByte * avgItemBytes,
		PerByteLoad: perByte,
		Support:     sup,
		ItemBytes:   avgItemBytes,
		MaxConns:    l.MaxConns,
	}
}

// itemBytes returns the profile's average item size, defaulting to 8.
func (p SourceProfile) itemBytes() float64 {
	if p.ItemBytes > 0 {
		return p.ItemBytes
	}
	return 8
}

// BloomSemijoinCost estimates the cost of a Bloom semijoin over a set of
// setItems items: shipping the filter (BloomBitsPerItem/8 bytes per item)
// and receiving the true matches plus the expected false positives among
// the source's condCard matching items. +Inf when the source does not
// accept Bloom semijoins.
func (p SourceProfile) BloomSemijoinCost(setItems, matchFrac, condCard float64) float64 {
	if p.BloomBitsPerItem <= 0 {
		return math.Inf(1)
	}
	perByteSend := p.PerItemSent / p.itemBytes()
	filterBytesPerItem := float64(p.BloomBitsPerItem) / 8
	fp := bloom.EstimateFalsePositiveRate(1000, p.BloomBitsPerItem)
	respItems := setItems*matchFrac + fp*condCard
	return p.PerQuery + perByteSend*filterBytesPerItem*setItems + p.PerItemRecv*respItems
}

// SelectCost estimates sq_cost(c, R): fixed per-query cost plus receiving
// the estimated respItems result items.
func (p SourceProfile) SelectCost(respItems float64) float64 {
	return p.PerQuery + p.PerItemRecv*respItems
}

// SemijoinCost estimates sjq_cost(c, R, X) for |X| = setItems when a
// fraction matchFrac of them is expected to satisfy c at the source.
// The affine-in-|X| shape with non-negative coefficients guarantees the
// subadditivity the cost model requires.
func (p SourceProfile) SemijoinCost(setItems, matchFrac float64) float64 {
	switch p.Support {
	case SemijoinNative:
		return p.PerQuery + p.PerItemSent*setItems + p.PerItemRecv*setItems*matchFrac
	case SemijoinEmulated:
		// One passed-binding selection per item of X.
		return setItems * (p.PerQuery + p.PerItemSent + p.PerItemRecv*matchFrac)
	default:
		return math.Inf(1)
	}
}

// LoadCost estimates lq_cost(R) for a source of the given total size.
func (p SourceProfile) LoadCost(relBytes float64) float64 {
	return p.PerQuery + p.PerByteLoad*relBytes
}

// SourceStats carries the base statistics of one source used for
// cardinality estimation.
type SourceStats struct {
	Name          string
	Tuples        int
	DistinctItems int
	Bytes         int
	// CondCard[i] estimates |sq(c_i, R)|: the number of distinct items of
	// the source satisfying condition i.
	CondCard []float64
}

// Gather computes exact statistics for the given conditions by running each
// of them against the source: one full selection per condition, of which
// only the size is kept. It is the ground truth that estimates from a
// summary are measured against (and what the benchmark times as the cost
// planning used to pay); no query path calls it.
func Gather(ctx context.Context, src source.Source, conds []cond.Cond) (SourceStats, error) {
	tuples, distinct, bytes := src.Card()
	st := SourceStats{Name: src.Name(), Tuples: tuples, DistinctItems: distinct, Bytes: bytes, CondCard: make([]float64, len(conds))}
	for i, c := range conds {
		items, err := src.Select(ctx, c)
		if err != nil {
			return SourceStats{}, fmt.Errorf("stats: gathering %q at %s: %w", c, src.Name(), err)
		}
		st.CondCard[i] = float64(items.Len())
	}
	return st, nil
}
