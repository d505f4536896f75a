package stats

import (
	"context"
	"fmt"

	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/source"
)

// Calibrate estimates a source's cost profile empirically, in the spirit of
// query sampling for local cost parameters in multidatabase systems (Zhu &
// Larson [25]): it issues probe queries against an instrumented source,
// observes the simulated elapsed time and payload of each exchange on the
// network, and fits the affine model
//
//	elapsed ≈ PerQuery + perByte · (request bytes + response bytes)
//
// by least squares. The per-item terms are derived from perByte via the
// observed average item size. probes supplies conditions of varying
// selectivity; more variety yields a better fit.
//
// The source must already be instrumented against network; probe traffic is
// left on the network's counters (callers that account an execution
// afterwards Reset first).
func Calibrate(ctx context.Context, src source.Source, network *netsim.Network, probes []cond.Cond) (SourceProfile, error) {
	if network == nil {
		return SourceProfile{}, fmt.Errorf("stats: calibration needs a network")
	}
	if len(probes) < 2 {
		return SourceProfile{}, fmt.Errorf("stats: calibration needs at least two probe conditions")
	}
	mark := network.Mark()
	totalItems, totalItemBytes := 0, 0
	for _, c := range probes {
		items, err := src.Select(ctx, c)
		if err != nil {
			return SourceProfile{}, fmt.Errorf("stats: probing %s with %q: %w", src.Name(), c, err)
		}
		totalItems += items.Len()
		totalItemBytes += items.Bytes()
	}
	exchanges := network.Since(mark)
	if len(exchanges) < 2 {
		return SourceProfile{}, fmt.Errorf("stats: probes produced %d exchanges, need at least 2", len(exchanges))
	}

	// Least-squares fit of elapsed = a + b·bytes over the probe exchanges.
	nPts := float64(len(exchanges))
	var sumX, sumY, sumXY, sumXX float64
	for _, ex := range exchanges {
		x := float64(ex.ReqBytes + ex.RespBytes)
		y := ex.Elapsed.Seconds()
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	denom := nPts*sumXX - sumX*sumX
	var a, b float64
	if denom <= 1e-12 {
		// All probes carried identical payloads: attribute everything to
		// the fixed per-query cost.
		a = sumY / nPts
		b = 0
	} else {
		b = (nPts*sumXY - sumX*sumY) / denom
		a = (sumY - b*sumX) / nPts
	}
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}

	avgItemBytes := 8.0
	if totalItems > 0 {
		avgItemBytes = float64(totalItemBytes) / float64(totalItems)
	}
	return SourceProfile{
		Name:        src.Name(),
		PerQuery:    a,
		PerItemSent: b * avgItemBytes,
		PerItemRecv: b * avgItemBytes,
		PerByteLoad: b,
		Support:     SupportOf(src.Caps()),
	}, nil
}
