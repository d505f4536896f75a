package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fusionq/internal/racetest"
)

// TestExportIsInIDOrder starts spans on many goroutines at once: Export must
// list them by ID, 1 to n with none missing, with no sort — IDs are handed
// out under the trace's lock in the order the spans start — and every
// parent must precede its child.
func TestExportIsInIDOrder(t *testing.T) {
	tr := NewTrace()
	ctx, root := StartSpan(With(context.Background(), &Obs{QueryID: "q-order", Trace: tr}), KindQuery, "query")
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cctx, sp := StartSpan(ctx, KindStep, "step")
				_, ex := StartSpan(cctx, KindExchange, "sq @ R1")
				ex.SetAttr(Int("i", int64(i)))
				ex.End(nil)
				sp.End(nil)
			}
		}()
	}
	wg.Wait()
	root.End(nil)
	spans := tr.Export()
	if want := 1 + 2*workers*each; len(spans) != want || tr.Len() != want {
		t.Fatalf("exported %d spans (Len %d), want %d", len(spans), tr.Len(), want)
	}
	for i, sp := range spans {
		if sp.ID != int64(i+1) {
			t.Fatalf("span %d has ID %d: export is not in ID order", i, sp.ID)
		}
		if sp.Parent >= sp.ID || (i > 0 && sp.Parent == 0) {
			t.Fatalf("span %d has parent %d", sp.ID, sp.Parent)
		}
		if !sp.Finished {
			t.Fatalf("span %d not finished", sp.ID)
		}
	}
}

// TestAttrsAreFormattedAtExport: a key set twice keeps its last value, and
// typed values print as the strings callers used to format themselves.
func TestAttrsAreFormattedAtExport(t *testing.T) {
	tr := NewTrace()
	_, sp := StartSpan(With(context.Background(), &Obs{Trace: tr}), KindExchange, "sq @ R1")
	sp.SetAttr(String("source", "R0"), Int("bytesIn", -17))
	sp.SetAttr(String("source", "R1"), Duration("simElapsed", 1500*time.Microsecond))
	for i := 0; i < 9; i++ { // past the list's first room
		sp.SetAttr(Int(string(rune('a'+i)), int64(i)))
	}
	sp.End(errors.New("boom"))
	got := tr.Export()[0]
	want := map[string]string{"source": "R1", "bytesIn": "-17", "simElapsed": "1.5ms"}
	for i := 0; i < 9; i++ {
		want[string(rune('a'+i))] = string(rune('0' + i))
	}
	if len(got.Attrs) != len(want) {
		t.Fatalf("attrs = %v, want %v", got.Attrs, want)
	}
	for k, v := range want {
		if got.Attrs[k] != v {
			t.Fatalf("attr %q = %q, want %q (all: %v)", k, got.Attrs[k], v, got.Attrs)
		}
	}
	if got.Error != "boom" {
		t.Fatalf("error = %q", got.Error)
	}
	if snap := sp.Snapshot(); snap.Attrs["source"] != "R1" || snap.ID != got.ID {
		t.Fatalf("snapshot = %+v, export = %+v", snap, got)
	}
}

// TestGraftNestsInTheEnvelope: a grafted child is clamped to its parent's
// exported duration and centered in it, so it nests in the exported figures
// however long the remote claims to have worked; a running or nil parent
// grafts nothing.
func TestGraftNestsInTheEnvelope(t *testing.T) {
	tr := NewTrace()
	_, sp := StartSpan(With(context.Background(), &Obs{QueryID: "q-g", Trace: tr}), KindWire, "sq @ addr")
	if sp.Graft(KindServer, "early", time.Microsecond) != nil {
		t.Fatal("grafted under a running span")
	}
	time.Sleep(2 * time.Millisecond)
	sp.End(nil)
	for _, d := range []time.Duration{0, time.Millisecond, time.Hour, -time.Second} {
		g := sp.Graft(KindServer, "server sq @ R1", d, Int("queueUs", 3))
		if g == nil {
			t.Fatalf("graft of %v recorded nothing", d)
		}
	}
	spans := tr.Export()
	if len(spans) != 5 {
		t.Fatalf("exported %d spans, want 5", len(spans))
	}
	w := spans[0]
	wEnd := w.Start.Add(time.Duration(w.DurationUS) * time.Microsecond)
	for _, k := range spans[1:] {
		kEnd := k.Start.Add(time.Duration(k.DurationUS) * time.Microsecond)
		if k.Parent != w.ID || k.QueryID != "q-g" || !k.Finished || k.Attrs["queueUs"] != "3" {
			t.Fatalf("grafted span = %+v", k)
		}
		if k.Start.Before(w.Start) || kEnd.After(wEnd) {
			t.Fatalf("grafted [%v, %v] escapes its envelope [%v, %v]", k.Start, kEnd, w.Start, wEnd)
		}
	}
	if spans[3].DurationUS != w.DurationUS {
		t.Fatalf("an hour-long fragment was clamped to %dus, want the envelope's %dus", spans[3].DurationUS, w.DurationUS)
	}
}

// TestSpanNamesJoinOnce: a pair's name is joined the first time it is
// asked and read from the cache after.
func TestSpanNamesJoinOnce(t *testing.T) {
	joins := 0
	names := NewSpanNames(func(a, b string) string { joins++; return a + " @ " + b })
	for i := 0; i < 3; i++ {
		if got := names.Of("sq", "R1"); got != "sq @ R1" {
			t.Fatalf("name = %q", got)
		}
		if got := names.Of("sjq", "R1"); got != "sjq @ R1" {
			t.Fatalf("name = %q", got)
		}
	}
	if joins != 2 {
		t.Fatalf("joined %d times for two pairs", joins)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = names.Of("sq", "R1") }); allocs != 0 {
		t.Fatalf("a cached name allocated %v times", allocs)
	}
}

// TestTraceAllocs is the tracer's allocation budget. A span started, given
// two attributes and ended allocates its context node and nothing else but
// its share of the trace's blocks; a grafted fragment with nine attributes
// allocates only its share; and a query the recorder samples out allocates
// the same whatever the size of its trace, because nothing of the trace is
// copied for it.
func TestTraceAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	ctx := With(context.Background(), &Obs{QueryID: "q-a", Trace: NewTrace()})
	ctx, parent := StartSpan(ctx, KindQuery, "query")
	if got := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, KindExchange, "sq @ R1")
		sp.SetAttr(String("source", "R1"))
		sp.SetAttr(Duration("simElapsed", time.Millisecond))
		sp.End(nil)
	}); got > 1 {
		t.Fatalf("a span with two attributes allocated %v times, want at most its context node", got)
	}
	parent.End(nil)
	if got := testing.AllocsPerRun(1000, func() {
		parent.Graft(KindServer, "server sq @ R1", time.Microsecond,
			String("op", "sq"), String("source", "R1"),
			Int("queueUs", 1), Int("parseUs", 2), Int("scanUs", 3), Int("chunkUs", 4),
			Int("queueDepth", 0), Int("bytesIn", 17), Int("bytesOut", 4096))
	}); got != 0 {
		t.Fatalf("a graft allocated %v times, want none", got)
	}

	sampledOut := func(spans int) float64 {
		tr := NewTrace()
		tctx := With(context.Background(), &Obs{QueryID: "q-s", Trace: tr})
		for i := 0; i < spans; i++ {
			_, sp := StartSpan(tctx, KindStep, "step")
			sp.SetAttr(String("source", "R1"))
			sp.End(nil)
		}
		rec := NewRecorder(RecorderConfig{})
		return testing.AllocsPerRun(100, func() {
			rec.boringSeq = 0 // the next boring query is not the sampled one
			rec.End(rec.Begin("q-s", Text("")), EndInfo{Trace: tr, Items: 1})
		})
	}
	if small, large := sampledOut(10), sampledOut(500); small != large {
		t.Fatalf("a sampled-out query allocated %v times with 10 spans, %v with 500", small, large)
	}
}
