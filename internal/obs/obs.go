// Package obs is the observability layer of the fusion-query engine: a
// span-based tracer, a lightweight metrics registry, and the context plumbing
// that carries both — together with a per-query identity — through every
// layer of a query's life.
//
// The paper's cost model compares estimated against measured source traffic,
// and the measured side only means something if every charge can be tied back
// to the query that caused it. The mediator (internal/core) mints a query ID
// for each query and installs an Obs into the query's context; the executor,
// the source decorators (flaky, cached, instrumented, which admits each
// exchange at its link) and the wire client all read it back with From(ctx)
// and emit spans and metrics without any of them holding a reference to a
// tracer or registry of their own. The wire protocol carries the query ID to
// remote fqsource processes, whose structured logs and metrics correlate with
// the mediator-side trace.
//
// Everything is optional and nil-safe: a context without an Obs, an Obs
// without a Trace, or a nil *Registry all degrade to no-ops, so instrumented
// code never branches on whether observability is enabled.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Obs bundles the observability state of one query (or one process, for
// servers): the query identity, an optional span collector, and an optional
// metrics registry. It travels in a context.Context via With/From.
type Obs struct {
	// QueryID identifies the query this context belongs to. Empty outside a
	// query (e.g. a server's base context carrying only a registry).
	QueryID string
	// Trace collects the query's spans; nil disables span recording.
	Trace *Trace
	// Metrics receives counters, gauges and histogram observations; nil
	// disables them.
	Metrics *Registry
	// Live is this query's entry in the flight recorder's in-flight
	// registry (see Recorder.Begin); nil when no recorder is attached.
	// All LiveQuery methods are nil-safe.
	Live *LiveQuery
}

// noop is returned by From for contexts without an Obs, so callers can use
// the result unconditionally.
var noop = &Obs{}

type ctxKey int

const (
	obsKey ctxKey = iota
	spanKey
)

// With returns a context carrying o. A nil o returns ctx unchanged.
func With(ctx context.Context, o *Obs) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, obsKey, o)
}

// From returns the context's Obs, or a no-op instance when none is
// installed. The result is never nil.
func From(ctx context.Context) *Obs {
	if o, ok := ctx.Value(obsKey).(*Obs); ok && o != nil {
		return o
	}
	return noop
}

// QueryID returns the context's query ID, or "" when the context carries
// none.
func QueryID(ctx context.Context) string { return From(ctx).QueryID }

// Meter returns the context's metrics registry (possibly nil; all Registry
// methods are nil-safe).
func Meter(ctx context.Context) *Registry { return From(ctx).Metrics }

// LiveOf returns the context's live-query registry entry (possibly nil; all
// LiveQuery methods are nil-safe).
func LiveOf(ctx context.Context) *LiveQuery { return From(ctx).Live }

// queryIDPrefix distinguishes processes so query IDs from different
// mediators rarely collide in merged logs; queryIDSeq orders queries within
// one process.
var (
	queryIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "0000ffff"
		}
		return hex.EncodeToString(b[:])
	}()
	queryIDSeq atomic.Uint64
)

// NewQueryID mints a process-unique query identifier, e.g. "q-1c9a2f40-17".
func NewQueryID() string {
	return fmt.Sprintf("q-%s-%d", queryIDPrefix, queryIDSeq.Add(1))
}
