package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test is not instrumented). Spans of one
// query share QID; Parent is the ID of the span that was open on the
// calling context, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	QID    int    `json:"qid"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"startNs"`
	EndNS   int64 `json:"endNs"`
	// Items is the layer's unit of work for the call, where it has one
	// (items returned by a source call, items merged by a set kernel).
	Items int `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same call sites serve the untraced run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanCtxKey struct{}

// spanRef is what a context carries: the open span and its query.
type spanRef struct{ id, qid int }

// withQuery marks ctx as belonging to query qid, with no span open yet.
func withQuery(ctx context.Context, qid int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{qid: qid})
}

// untraced hides the query from ctx, so the timing decorator stays silent
// for calls made with it.
func untraced(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, nil)
}

// openSpan is a started span; end closes it.
type openSpan struct {
	rec   *recorder
	ref   spanRef
	par   int
	name  string
	start time.Time
}

// start opens a span named name under whatever span ctx carries and
// returns the context that children must be called with.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *openSpan) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	r.mu.Lock()
	r.spans = append(r.spans, span{})
	id := len(r.spans)
	r.mu.Unlock()
	o := &openSpan{rec: r, ref: spanRef{id: id, qid: parent.qid}, par: parent.id, name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, o.ref), o
}

// end closes the span, noting the call's unit-of-work count.
func (o *openSpan) end(items int) {
	if o == nil {
		return
	}
	end := time.Now()
	r := o.rec
	r.mu.Lock()
	r.spans[o.ref.id-1] = span{
		ID: o.ref.id, Parent: o.par, QID: o.ref.qid, Name: o.name,
		StartNS: o.start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Items: items,
	}
	r.mu.Unlock()
}

// export returns the closed spans in start order.
func (r *recorder) export() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, so concurrent children cannot drive self time negative).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, until), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// byQuery sums, for each query, the microseconds of its spans called name:
// one number per query even for a layer called several times in it.
func byQuery(spans []span, name string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			sums[s.QID] += spanMicros(s)
		}
	}
	return sums
}

func spanMicros(s span) float64 { return float64(s.dur()) / float64(time.Microsecond) }

// writeTrace writes the spans of one workload's traced run.
func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
