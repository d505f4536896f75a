package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a lightweight metrics registry: named counter, gauge and
// histogram families, each fanned out by label sets. It exposes its contents
// in Prometheus text exposition format (PrometheusText) and as JSON
// (Snapshot / MarshalJSON), which the admin listeners serve.
//
// All methods are safe for concurrent use, and every method on a nil
// *Registry (and on the nil instruments it then returns) is a no-op, so
// instrumented code paths never branch on whether metrics are enabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// metric family kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type family struct {
	name string
	help string
	kind string

	mu      sync.Mutex
	metrics map[string]*instrument
	order   []string
}

// instrument is one (family, label set) time series.
type instrument struct {
	labels []string // alternating key, value — sorted by key

	val atomic.Int64 // counter / gauge value

	// histogram state, guarded by mu.
	mu     sync.Mutex
	counts []int64 // one per DefaultBuckets bound, plus +Inf at the end
	sum    float64
	count  int64
}

// Counter is a monotonically increasing metric.
type Counter struct{ in *instrument }

// Gauge is a metric that can go up and down.
type Gauge struct{ in *instrument }

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ in *instrument }

// DefaultBuckets are the fixed latency buckets (seconds) used for every
// histogram: tuned so that both real wire round trips (sub-millisecond on
// loopback) and simulated WAN exchanges (tens to hundreds of milliseconds)
// land in the interior.
var DefaultBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var (
	defaultRegistry     *Registry
	defaultRegistryOnce sync.Once
)

// Default returns the process-wide registry, the sink for components not
// given an explicit one (the mediator's query counters, by default).
func Default() *Registry {
	defaultRegistryOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// describeTyped sets a family's kind and help text (shown in the Prometheus
// exposition), so the family appears in Snapshot and PrometheusText (as a
// HELP/TYPE header with no series) even before its first instrument exists
// — a scrape then documents the full metric vocabulary, not just the series
// this process happened to touch. Creating an instrument with an
// undescribed name registers the family with empty help.
func (r *Registry) describeTyped(name, kind, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, kind).help = help
}

func (r *Registry) familyFor(name, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, kind)
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// familyLocked returns name's family, made of kind when there is none yet;
// the caller holds r.mu.
func (r *Registry) familyLocked(name, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, metrics: map[string]*instrument{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// instrumentFor finds the series for alternating key/value labels, creating
// it on first sight. Labels are normalized by sorting the pairs by key (an
// odd trailing key gets an empty value rather than panicking), and the map
// key is each key and value behind its length, which no other pairs spell.
// Up to four pairs of ordinary length are sorted and keyed on the stack, so
// a lookup that hits allocates nothing; only the first sighting copies.
func (f *family) instrumentFor(labels []string) *instrument {
	var pairsArr [8]string
	pairs := append(pairsArr[:0], labels...)
	if len(pairs)%2 == 1 {
		pairs = append(pairs, "")
	}
	for i := 2; i < len(pairs); i += 2 { // a stable insertion sort by key
		for j := i; j > 0 && pairs[j] < pairs[j-2]; j -= 2 {
			pairs[j], pairs[j-2] = pairs[j-2], pairs[j]
			pairs[j+1], pairs[j-1] = pairs[j-1], pairs[j+1]
		}
	}
	var keyArr [128]byte
	key := keyArr[:0]
	for _, s := range pairs {
		key = append(strconv.AppendInt(key, int64(len(s)), 10), ':')
		key = append(key, s...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.metrics[string(key)]
	if !ok {
		in = &instrument{labels: append([]string(nil), pairs...)}
		if f.kind == kindHistogram {
			in.counts = make([]int64, len(DefaultBuckets)+1)
		}
		f.metrics[string(key)] = in
		f.order = append(f.order, string(key))
	}
	return in
}

// Counter returns the counter time series for name and the given
// alternating label key/value pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{in: r.familyFor(name, kindCounter).instrumentFor(labels)}
}

// Gauge returns the gauge time series for name and labels.
func (r *Registry) Gauge(name string, labels ...string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{in: r.familyFor(name, kindGauge).instrumentFor(labels)}
}

// Histogram returns the histogram time series for name and labels, bucketed
// by DefaultBuckets.
func (r *Registry) Histogram(name string, labels ...string) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{in: r.familyFor(name, kindHistogram).instrumentFor(labels)}
}

// Add increments the counter by n (negative n is ignored — counters are
// monotonic).
func (c Counter) Add(n int64) {
	if c.in == nil || n <= 0 {
		return
	}
	c.in.val.Add(n)
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the counter's current value.
func (c Counter) Value() int64 {
	if c.in == nil {
		return 0
	}
	return c.in.val.Load()
}

// Add moves the gauge by n (either sign).
func (g Gauge) Add(n int64) {
	if g.in == nil {
		return
	}
	g.in.val.Add(n)
}

// Set sets the gauge to n.
func (g Gauge) Set(n int64) {
	if g.in == nil {
		return
	}
	g.in.val.Store(n)
}

// Inc and Dec move the gauge by ±1.
func (g Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g Gauge) Dec() { g.Add(-1) }

// Value returns the gauge's current value.
func (g Gauge) Value() int64 {
	if g.in == nil {
		return 0
	}
	return g.in.val.Load()
}

// Observe records one observation (in the histogram's native unit —
// seconds, for every latency histogram in this codebase).
func (h Histogram) Observe(v float64) {
	if h.in == nil || math.IsNaN(v) {
		return
	}
	in := h.in
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := len(in.counts) - 1 // +Inf
	for i, ub := range DefaultBuckets {
		if v <= ub {
			idx = i
			break
		}
	}
	in.counts[idx]++
	in.sum += v
	in.count++
}

// ObserveDuration records d as seconds.
func (h Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns how many observations the histogram has recorded.
func (h Histogram) Count() int64 {
	if h.in == nil {
		return 0
	}
	h.in.mu.Lock()
	defer h.in.mu.Unlock()
	return h.in.count
}

// MetricPoint is one time series in a Snapshot.
type MetricPoint struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter/gauge value.
	Value int64 `json:"value,omitempty"`
	// Histogram fields.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MetricFamily is one named metric in a Snapshot.
type MetricFamily struct {
	Name   string        `json:"name"`
	Type   string        `json:"type"`
	Help   string        `json:"help,omitempty"`
	Points []MetricPoint `json:"points"`
}

// Snapshot returns the registry's current contents in registration order,
// suitable for JSON embedding.
func (r *Registry) Snapshot() []MetricFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var out []MetricFamily
	for _, f := range fams {
		f.mu.Lock()
		mf := MetricFamily{Name: f.name, Type: f.kind, Help: f.help}
		for _, key := range f.order {
			in := f.metrics[key]
			p := MetricPoint{}
			if len(in.labels) > 0 {
				p.Labels = map[string]string{}
				for i := 0; i+1 < len(in.labels); i += 2 {
					p.Labels[in.labels[i]] = in.labels[i+1]
				}
			}
			switch f.kind {
			case kindHistogram:
				in.mu.Lock()
				p.Count = in.count
				p.Sum = in.sum
				p.Buckets = map[string]int64{}
				cum := int64(0)
				for i, ub := range DefaultBuckets {
					cum += in.counts[i]
					p.Buckets[formatBound(ub)] = cum
				}
				cum += in.counts[len(in.counts)-1]
				p.Buckets["+Inf"] = cum
				in.mu.Unlock()
			default:
				p.Value = in.val.Load()
			}
			mf.Points = append(mf.Points, p)
		}
		f.mu.Unlock()
		out = append(out, mf)
	}
	return out
}

// MarshalJSON renders the snapshot as a JSON array of metric families.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// LabelValues returns the distinct values the given label takes across every
// series of family name, sorted. Cardinality guards use it to assert that a
// label set stays bounded by a known roster (e.g. per-endpoint fabric series
// never outgrow the registered replica set).
func (r *Registry) LabelValues(name, label string) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	seen := map[string]bool{}
	for _, in := range f.metrics {
		for i := 0; i+1 < len(in.labels); i += 2 {
			if in.labels[i] == label {
				seen[in.labels[i+1]] = true
			}
		}
	}
	f.mu.Unlock()
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PrometheusText renders the registry in the Prometheus text exposition
// format (version 0.0.4), the payload of the fqsource admin listener's
// /metrics endpoint.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, mf := range r.Snapshot() {
		if mf.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", mf.Name, mf.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", mf.Name, mf.Type)
		for _, p := range mf.Points {
			switch mf.Type {
			case kindHistogram:
				for _, ub := range DefaultBuckets {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", mf.Name,
						promLabels(p.Labels, "le", formatBound(ub)), p.Buckets[formatBound(ub)])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", mf.Name, promLabels(p.Labels, "le", "+Inf"), p.Buckets["+Inf"])
				fmt.Fprintf(&b, "%s_sum%s %s\n", mf.Name, promLabels(p.Labels), strconv.FormatFloat(p.Sum, 'g', -1, 64))
				fmt.Fprintf(&b, "%s_count%s %d\n", mf.Name, promLabels(p.Labels), p.Count)
			default:
				fmt.Fprintf(&b, "%s%s %d\n", mf.Name, promLabels(p.Labels), p.Value)
			}
		}
	}
	return b.String()
}

// promLabels renders a label set ({k="v",...}), with optional extra
// key/value appended (for histogram le bounds). Empty sets render as "".
func promLabels(labels map[string]string, extra ...string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
