package obs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestRecorderRetainsEveryInterestingQuery drives a seeded mixed workload —
// mostly boring queries with a sprinkle of errors, hedges, failovers and
// repairs — through a recorder, enough of them that its sample of the boring
// ones overflows it, and checks the tail-based retention contract: every
// interesting query survives, boring ones are sampled, and both the record
// count and the byte footprint stay within bounds.
func TestRecorderRetainsEveryInterestingQuery(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Metrics: reg})
	rng := rand.New(rand.NewSource(7))
	interesting := map[string]bool{}
	const n = 12000
	for i := 0; i < n; i++ {
		qid := fmt.Sprintf("q-%05d", i)
		lq := rec.Begin(qid, Text("SELECT ..."))
		lq.Exchange("R1", "sq", 64)
		info := EndInfo{Items: 3}
		switch draw := rng.Float64(); {
		case draw < 0.01:
			info.Err = errors.New("replica exhausted")
		case draw < 0.02:
			info.Hedges = 1
		case draw < 0.025:
			info.Failovers = 1
		case draw < 0.03:
			info.Repaired = true
		}
		if info.Err != nil || info.Hedges > 0 || info.Failovers > 0 || info.Repaired {
			interesting[qid] = true
		}
		rec.End(lq, info)
	}
	if len(interesting) == 0 || len(interesting) > recorderCapacity {
		t.Fatalf("workload drew %d interesting queries; the seed should give a tail that fits capacity", len(interesting))
	}

	// 100% of the interesting tail survives the boring flood.
	for qid := range interesting {
		if _, ok := rec.Get(qid); !ok {
			t.Fatalf("interesting query %s was evicted", qid)
		}
	}
	idx := rec.Index()
	if len(idx) != recorderCapacity {
		t.Fatalf("retained %d records, want the capacity %d: the boring sample should overflow it", len(idx), recorderCapacity)
	}
	if rec.RetainedBytes() > recorderMaxBytes {
		t.Fatalf("retained %d bytes, bound %d", rec.RetainedBytes(), recorderMaxBytes)
	}
	boring := 0
	for _, s := range idx {
		if s.Sampled {
			boring++
			continue
		}
		if !interesting[s.QueryID] {
			t.Fatalf("record %s retained unsampled but never marked interesting: %+v", s.QueryID, s)
		}
	}
	// Boring retention is a 1-in-16 sample of ~11 640 clean queries, further
	// trimmed by eviction; it must be present but nowhere near the flood.
	if boring == 0 || boring > n/sampleEvery {
		t.Fatalf("boring sample count %d outside (0, %d]", boring, n/sampleEvery)
	}

	// The recorder's own accounting agrees with what was kept: every query
	// either entered the ring or was dropped by sampling, and the ring holds
	// exactly the entered-minus-evicted survivors.
	entered := counterSum(reg, MTraceRetained)
	sampledOut := counterPoint(reg, MTraceDropped, "reason", "sampled")
	evicted := counterPoint(reg, MTraceDropped, "reason", "evicted")
	if entered+sampledOut != n {
		t.Fatalf("entered %d + sampled-out %d != %d queries", entered, sampledOut, n)
	}
	if entered-evicted != len(idx) {
		t.Fatalf("entered %d - evicted %d != %d retained records", entered, evicted, len(idx))
	}
	if live := len(rec.Live()); live != 0 {
		t.Fatalf("%d queries still live after the workload", live)
	}
	if got := reg.Gauge(MTraceBytes).Value(); got != int64(rec.RetainedBytes()) {
		t.Fatalf("%s = %d, retained %d bytes", MTraceBytes, got, rec.RetainedBytes())
	}
}

func counterSum(reg *Registry, name string) int {
	total := 0
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, p := range fam.Points {
			total += int(p.Value)
		}
	}
	return total
}

func counterPoint(reg *Registry, name, label, value string) int {
	total := 0
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, p := range fam.Points {
			if p.Labels[label] == value {
				total += int(p.Value)
			}
		}
	}
	return total
}

// TestRecorderEvictsBoringBeforeInteresting overfills the ring and checks the
// eviction order: the boring records go first, oldest first.
func TestRecorderEvictsBoringBeforeInteresting(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	n := 0
	end := func(err error) string {
		n++
		qid := fmt.Sprintf("q-%d", n)
		rec.End(rec.Begin(qid, Text("")), EndInfo{Err: err})
		return qid
	}
	// sampled ends boring queries until the recorder keeps one.
	sampled := func() string {
		for i := 1; i < sampleEvery; i++ {
			end(nil)
		}
		return end(nil)
	}
	boring1 := sampled()
	if _, ok := rec.Get(boring1); !ok {
		t.Fatalf("boring query %d of %d was not sampled in", sampleEvery, sampleEvery)
	}
	var errs []string
	for len(errs) < recorderCapacity-1 {
		errs = append(errs, end(errors.New("x")))
	}
	// The ring is full; each record from here on evicts one.
	boring2 := sampled()
	errs = append(errs, end(errors.New("x")))

	if _, ok := rec.Get(boring1); ok {
		t.Fatal("oldest boring record survived past capacity")
	}
	if _, ok := rec.Get(boring2); ok {
		t.Fatal("boring record outlived interesting ones")
	}
	for _, qid := range errs {
		if _, ok := rec.Get(qid); !ok {
			t.Fatalf("interesting record %s evicted while boring ones existed", qid)
		}
	}
}

// TestRecorderKeepsSlowQueries checks the slow path: a query at or above the
// slow mark is marked slow, always retained (the first boring query of a
// recorder is never in its sample), and counted.
func TestRecorderKeepsSlowQueries(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Metrics: reg})
	lq := rec.Begin("q-slow", Text("SELECT L FROM dmv"))
	lq.start = lq.start.Add(-slowQuery) // instead of waiting it out
	rec.End(lq, EndInfo{Items: 1})

	recd, ok := rec.Get("q-slow")
	if !ok || !recd.Slow || recd.Sampled {
		t.Fatalf("slow query not retained as interesting: ok=%t rec=%+v", ok, recd)
	}
	if got := reg.Counter(MSlowQueries).Value(); got != 1 {
		t.Fatalf("fq_slow_queries_total = %d, want 1", got)
	}
}

// TestRecorderLiveGaugeUnderConcurrency: queries that begin and end on many
// goroutines at once leave fq_live_queries at what the live registry holds
// once they are done, 0, and fq_trace_bytes at what is retained. Each round
// is one burst of concurrent queries, checked when it ends.
func TestRecorderLiveGaugeUnderConcurrency(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Metrics: reg})
	const rounds, workers = 300, 8
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var info EndInfo
				if w%3 == 0 {
					info.Hedges = 1 // retained, so fq_trace_bytes moves too
				}
				rec.End(rec.Begin(fmt.Sprintf("q-%d-%d", round, w), Text("")), info)
			}()
		}
		wg.Wait()
		if got, live := reg.Gauge(MLiveQueries).Value(), len(rec.Live()); got != int64(live) || live != 0 {
			t.Fatalf("round %d: %s = %d with %d queries live, want both 0", round, MLiveQueries, got, live)
		}
		if got := reg.Gauge(MTraceBytes).Value(); got != int64(rec.RetainedBytes()) {
			t.Fatalf("round %d: %s = %d, retained %d bytes", round, MTraceBytes, got, rec.RetainedBytes())
		}
	}
}

// TestRecorderLiveRegistry checks the in-flight view: Begin makes a query
// visible with its accumulated per-source traffic, End removes it.
func TestRecorderLiveRegistry(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	lq := rec.Begin("q-live", Text("SELECT ..."))
	lq.Exchange("R1", "sq", 100)
	lq.Exchange("R1", "sjq", 28)
	lq.Exchange("R2", "lq", 512)

	live := rec.Live()
	if len(live) != 1 || live[0].QueryID != "q-live" {
		t.Fatalf("live = %+v, want the one in-flight query", live)
	}
	r1 := live[0].Sources["R1"]
	if r1.Exchanges != 2 || r1.Bytes != 128 || r1.LastOp != "sjq" {
		t.Fatalf("R1 live source info = %+v", r1)
	}
	if live[0].Bytes != 640 {
		t.Fatalf("live bytes = %d, want 640", live[0].Bytes)
	}

	rec.End(lq, EndInfo{})
	if len(rec.Live()) != 0 {
		t.Fatal("query still live after End")
	}
}

// TestRecorderNilSafety exercises the disabled path: nil recorders and nil
// live queries are inert, so call sites never branch on recording being on.
func TestRecorderNilSafety(t *testing.T) {
	var rec *Recorder
	lq := rec.Begin("q", Text("text"))
	if lq != nil {
		t.Fatalf("nil recorder minted a live query: %+v", lq)
	}
	lq.Exchange("R1", "sq", 1) // must not panic
	lq.setStep(KindPhase, "plan")
	rec.End(lq, EndInfo{})
	if rec.Live() != nil || rec.Index() != nil || rec.RetainedBytes() != 0 {
		t.Fatal("nil recorder reported state")
	}
	if _, ok := rec.Get("q"); ok {
		t.Fatal("nil recorder returned a record")
	}
	data, err := rec.ExportJSON()
	if err != nil || !strings.Contains(string(data), "records") {
		t.Fatalf("nil recorder export = %q, %v", data, err)
	}
}

// countedText is a query text that counts its renderings.
type countedText struct{ n *int }

func (c countedText) String() string { *c.n++; return "A1 < 500" }

// TestRecorderRendersTextWhenShown: a query's text is rendered only when it
// is shown, for a snapshot of the live registry or a record the recorder
// keeps; a query sampled out never renders it.
func TestRecorderRendersTextWhenShown(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	n := 0
	for i := 1; i < sampleEvery; i++ {
		rec.End(rec.Begin(fmt.Sprintf("q-%d", i), countedText{&n}), EndInfo{})
	}
	if n != 0 || len(rec.Index()) != 0 {
		t.Fatalf("%d boring queries sampled out rendered their text %d times and left %d records, want 0 and 0", sampleEvery-1, n, len(rec.Index()))
	}
	lq := rec.Begin("q-live", countedText{&n})
	if live := rec.Live(); len(live) != 1 || live[0].Text != "A1 < 500" || n != 1 {
		t.Fatalf("live = %+v after %d renderings, want the text rendered once", live, n)
	}
	rec.End(lq, EndInfo{}) // the sampleEvery'th boring query: kept
	r, ok := rec.Get("q-live")
	if !ok || r.Text != "A1 < 500" || n != 2 {
		t.Fatalf("kept record %+v (found %v) after %d renderings, want its text rendered once more", r, ok, n)
	}
}
