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
// The source must be instrumented against a network: the fit is over a
// ledger of the probes' own exchanges, whatever else the network carries.
func Calibrate(ctx context.Context, src source.Source, probes []cond.Cond) (SourceProfile, error) {
	if len(probes) < 2 {
		return SourceProfile{}, fmt.Errorf("stats: calibration needs at least two probe conditions")
	}
	var ledger netsim.Ledger
	ctx = netsim.WithLedger(ctx, &ledger, 0)
	totalItems, totalItemBytes := 0, 0
	for _, c := range probes {
		items, err := src.Select(ctx, c)
		if err != nil {
			return SourceProfile{}, fmt.Errorf("stats: probing %s with %q: %w", src.Name(), c, err)
		}
		totalItems += items.Len()
		totalItemBytes += items.Bytes()
	}
	exchanges := ledger.Entries()
	if len(exchanges) < 2 {
		return SourceProfile{}, fmt.Errorf("stats: probes produced %d exchanges, need at least 2 (is %s instrumented?)", len(exchanges), src.Name())
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
