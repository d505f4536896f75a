package obs

import (
	"context"
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Span kinds, from outermost to innermost: a query span covers planning and
// execution of one fusion query; a phase span covers one internal stage
// (stats gathering, optimization, execution, fetch); a step span covers one
// plan step; an attempt span covers one issue of a retryable operation; an
// exchange span covers one accounted source exchange; a wire span covers one
// request/response round trip to a remote source; a server span is a remote
// server's own timing fragment, grafted under the wire span that carried it
// (see Graft and internal/wire's fragment extension).
const (
	KindQuery    = "query"
	KindPhase    = "phase"
	KindStep     = "step"
	KindAttempt  = "attempt"
	KindExchange = "exchange"
	KindWire     = "wire"
	KindServer   = "server"
)

// Trace collects the spans of one query — or of several queries, when a
// caller installs one Trace in the context of them all; each span carries
// the query ID it belongs to. All methods are safe for concurrent use: the
// parallel executor starts and ends spans from many goroutines.
type Trace struct {
	mu     sync.Mutex
	nextID int64
	spans  []*Span
}

// NewTrace returns an empty span collector.
func NewTrace() *Trace { return &Trace{} }

// Span is one timed operation in a trace. Fields are written by the obs
// package; readers should use Snapshot (or Trace.Export) for a consistent
// view once the span has ended.
type Span struct {
	mu       sync.Mutex
	id       int64
	parent   int64 // 0 = root
	queryID  string
	kind     string
	name     string
	start    time.Time
	end      time.Time
	attrs    map[string]string
	errText  string
	finished bool
}

// SpanData is the exported, immutable form of a finished (or in-flight)
// span.
type SpanData struct {
	ID      int64     `json:"id"`
	Parent  int64     `json:"parent,omitempty"`
	QueryID string    `json:"queryId,omitempty"`
	Kind    string    `json:"kind"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	// DurationUS is the span's wall-clock duration in microseconds (zero
	// until the span ends).
	DurationUS int64             `json:"durationUs"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
	// Finished reports whether End was called. DurationUS alone cannot
	// distinguish an unfinished span from a sub-microsecond one, so balance
	// checks (every started span must end) key on this field.
	Finished bool `json:"finished,omitempty"`
}

// StartSpan begins a span named name of the given kind as a child of the
// context's current span, returning a derived context (in which the new span
// is current) and the span. Without a Trace in ctx it returns ctx and a nil
// span; all Span methods are nil-safe, so call sites need no branches.
func StartSpan(ctx context.Context, kind, name string) (context.Context, *Span) {
	o := From(ctx)
	if o.Live != nil && (kind == KindPhase || kind == KindStep) {
		// Keep the flight recorder's live registry current: phase and step
		// starts are the "where is this query right now" signal.
		o.Live.setStep(kind, name)
	}
	if o.Trace == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(int64)
	sp := o.Trace.start(parent, o.QueryID, kind, name)
	return context.WithValue(ctx, spanKey, sp.id), sp
}

func (t *Trace) start(parent int64, queryID, kind, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp := &Span{
		id:      t.nextID,
		parent:  parent,
		queryID: queryID,
		kind:    kind,
		name:    name,
		start:   time.Now(),
	}
	t.spans = append(t.spans, sp)
	return sp
}

// Graft appends an already-timed, already-finished span to the context's
// trace as a child of parent — the mechanism by which a remote server's
// self-reported timing fragment (internal/wire) lands inside the mediator's
// trace. The caller supplies the absolute start and duration, normalized
// into the parent's envelope beforehand (the wire client centers the server
// interval in the round trip and clamps it, so nesting holds even under
// clock skew). A nil parent grafts a root span. Without a Trace in ctx it
// returns nil; the result needs no End — the span is born finished, which
// is why spanbalance does not require a matching End for Graft results.
func Graft(ctx context.Context, parent *Span, kind, name string, start time.Time, d time.Duration, attrs map[string]string) *Span {
	o := From(ctx)
	if o.Trace == nil {
		return nil
	}
	var parentID int64
	if parent != nil {
		parentID = parent.id
	}
	if d < 0 {
		d = 0
	}
	t := o.Trace
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp := &Span{
		id:       t.nextID,
		parent:   parentID,
		queryID:  o.QueryID,
		kind:     kind,
		name:     name,
		start:    start,
		end:      start.Add(d),
		finished: true,
	}
	if len(attrs) > 0 {
		sp.attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			sp.attrs[k] = v
		}
	}
	t.spans = append(t.spans, sp)
	return sp
}

// SetAttr records a key/value attribute on the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
}

// End finishes the span, recording err's text when non-nil. Ending twice
// keeps the first end time. Nil-safe.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return
	}
	s.finished = true
	s.end = time.Now()
	if err != nil {
		s.errText = err.Error()
	}
}

// Snapshot returns the span's current exported form. Nil-safe (returns a
// zero SpanData).
func (s *Span) Snapshot() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		QueryID:  s.queryID,
		Kind:     s.kind,
		Name:     s.name,
		Start:    s.start,
		Error:    s.errText,
		Finished: s.finished,
	}
	if !s.end.IsZero() {
		d.DurationUS = s.end.Sub(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	return d
}

// Export returns every span recorded so far, in start order.
func (t *Trace) Export() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	out := make([]SpanData, len(spans))
	for i, sp := range spans {
		out[i] = sp.Snapshot()
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Len reports how many spans have been recorded.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// JSON renders the trace as an indented JSON array of spans, the
// -trace-json export format of cmd/fusionq.
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Export(), "", "  ")
}
