// Fixture vocabulary file: the analyzer keys on the names.go basename.
package fixture

const (
	MGood    = "fq_good_total"
	MHidden  = "fq_hidden_total"
	MOther   = "fq_other_total"
	notAName = 7 // non-string constants are outside the vocabulary

	// Flight-recorder vocabulary, mirroring internal/obs/names.go: the
	// recorder's families obey the same constant-only rule as every other
	// charge site.
	MTraceRetained = "fq_trace_retained_total"
	MSlowQueries   = "fq_slow_queries_total"
)
