// Fixture for the metricnames analyzer: a stand-in Registry with the same
// method shape as internal/obs.
package fixture

// Registry mimics obs.Registry's charge methods.
type Registry struct{}

func (r *Registry) Counter(name string, labels ...string) int   { return notAName }
func (r *Registry) Gauge(name string, labels ...string) int     { return 0 }
func (r *Registry) Histogram(name string, labels ...string) int { return 0 }

const localConst = "fq_local_total"

func charge(r *Registry, dynamic string) {
	r.Counter(MGood, "source", "R1")
	r.Gauge(MHidden)
	r.Histogram(MOther)
	r.Counter("fq_literal_total")  // want `string-literal metric name "fq_literal_total"`
	r.Gauge(localConst)            // want `metric name constant localConst is not declared in names.go`
	r.Histogram("fq_" + dynamic)   // want `computed metric name`
	other().Counter("fq_ok_total") // not a Registry: out of scope
}

// chargeFlight exercises the flight-recorder families: constants pass, a
// literal trace-family name is rejected like any other.
func chargeFlight(r *Registry) {
	r.Counter(MTraceRetained, "class", "interesting")
	r.Counter(MSlowQueries)
	r.Gauge("fq_trace_bytes") // want `string-literal metric name "fq_trace_bytes"`
}

type counterish struct{}

func (counterish) Counter(name string) int { return 0 }

func other() counterish { return counterish{} }
