package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusTextGolden pins the exposition format byte-for-byte for a
// small registry covering all three instrument kinds: HELP/TYPE headers,
// label rendering, cumulative histogram buckets ending in +Inf, and the
// _sum/_count pair. A scrape-side regression (a dropped +Inf line, a
// non-cumulative bucket) fails this before any Prometheus ever sees it.
func TestPrometheusTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.describeTyped("fq_demo_total", kindCounter, "Demo counter.")
	reg.Counter("fq_demo_total", "op", "sq").Add(3)
	reg.Counter("fq_demo_total", "op", "lq").Inc()
	reg.Gauge("fq_demo_depth").Set(7)
	h := reg.Histogram("fq_demo_seconds")
	h.Observe(0.0007) // bucket le=0.001
	h.Observe(0.003)  // bucket le=0.005
	h.Observe(42)     // beyond every bound: +Inf only

	want := strings.Join([]string{
		`# HELP fq_demo_total Demo counter.`,
		`# TYPE fq_demo_total counter`,
		`fq_demo_total{op="sq"} 3`,
		`fq_demo_total{op="lq"} 1`,
		`# TYPE fq_demo_depth gauge`,
		`fq_demo_depth 7`,
		`# TYPE fq_demo_seconds histogram`,
		`fq_demo_seconds_bucket{le="0.0005"} 0`,
		`fq_demo_seconds_bucket{le="0.001"} 1`,
		`fq_demo_seconds_bucket{le="0.005"} 2`,
		`fq_demo_seconds_bucket{le="0.01"} 2`,
		`fq_demo_seconds_bucket{le="0.025"} 2`,
		`fq_demo_seconds_bucket{le="0.05"} 2`,
		`fq_demo_seconds_bucket{le="0.1"} 2`,
		`fq_demo_seconds_bucket{le="0.25"} 2`,
		`fq_demo_seconds_bucket{le="0.5"} 2`,
		`fq_demo_seconds_bucket{le="1"} 2`,
		`fq_demo_seconds_bucket{le="2.5"} 2`,
		`fq_demo_seconds_bucket{le="5"} 2`,
		`fq_demo_seconds_bucket{le="10"} 2`,
		`fq_demo_seconds_bucket{le="+Inf"} 3`,
		`fq_demo_seconds_sum 42.0037`,
		`fq_demo_seconds_count 3`,
	}, "\n") + "\n"
	if got := reg.PrometheusText(); got != want {
		t.Fatalf("exposition drifted from golden form:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusConformanceFullVocabulary scrapes a registry carrying the
// entire described vocabulary plus live observations and checks the
// invariants Prometheus ingestion relies on, family by family: buckets are
// cumulative and non-decreasing, the +Inf bucket equals _count, and every
// histogram series carries the _sum/_count pair.
func TestPrometheusConformanceFullVocabulary(t *testing.T) {
	reg := NewRegistry()
	DescribeAll(reg)
	reg.Counter(MWireRequests, "op", "sq").Inc()
	reg.Histogram(MWireSeconds, "op", "sq").Observe(0.002)
	reg.Histogram(MWireSeconds, "op", "sq").Observe(0.7)
	reg.Histogram(MWireSeconds, "op", "lq").Observe(30) // over the last bound
	reg.Histogram(MExchangeSeconds).Observe(0.01)

	for _, fam := range reg.Snapshot() {
		if fam.Type != "histogram" {
			continue
		}
		for _, p := range fam.Points {
			inf, ok := p.Buckets["+Inf"]
			if !ok {
				t.Fatalf("%s: series %v has no +Inf bucket", fam.Name, p.Labels)
			}
			if inf != p.Count {
				t.Fatalf("%s: +Inf bucket %d != count %d", fam.Name, inf, p.Count)
			}
			prev := int64(0)
			for _, ub := range DefaultBuckets {
				c, ok := p.Buckets[strconv.FormatFloat(ub, 'g', -1, 64)]
				if !ok {
					t.Fatalf("%s: missing bucket le=%v", fam.Name, ub)
				}
				if c < prev {
					t.Fatalf("%s: bucket le=%v count %d below previous %d (not cumulative)", fam.Name, ub, c, prev)
				}
				prev = c
			}
			if inf < prev {
				t.Fatalf("%s: +Inf %d below last bound %d", fam.Name, inf, prev)
			}
		}
	}

	text := reg.PrometheusText()
	for _, fam := range reg.Snapshot() {
		if fam.Type != "histogram" || len(fam.Points) == 0 {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !strings.Contains(text, fam.Name+suffix) {
				t.Fatalf("exposition lacks %s%s:\n%s", fam.Name, suffix, text)
			}
		}
	}
	// The described-but-uncharged families still expose their headers, so a
	// scrape documents the full vocabulary.
	for _, name := range []string{MTraceRetained, MSlowQueries, MLiveQueries} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Fatalf("described family %s missing its TYPE header", name)
		}
	}
}

// TestLabelValuesCardinality checks the guard primitive itself: LabelValues
// reports exactly the distinct values a label has taken, sorted, and nothing
// for foreign labels or families.
func TestLabelValuesCardinality(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fq_x_total", "endpoint", "b", "op", "sq").Inc()
	reg.Counter("fq_x_total", "endpoint", "a", "op", "sq").Inc()
	reg.Counter("fq_x_total", "endpoint", "a", "op", "lq").Inc()

	got := reg.LabelValues("fq_x_total", "endpoint")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("LabelValues(endpoint) = %v, want [a b]", got)
	}
	if vals := reg.LabelValues("fq_x_total", "absent"); len(vals) != 0 {
		t.Fatalf("LabelValues(absent) = %v", vals)
	}
	if vals := reg.LabelValues("fq_other_total", "endpoint"); vals != nil {
		t.Fatalf("LabelValues on unknown family = %v", vals)
	}
}
