package obs

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, from outermost to innermost: a query span covers planning and
// execution of one fusion query; a phase span covers one internal stage
// (stats gathering, optimization, execution, fetch); a step span covers one
// plan step; an attempt span covers one issue of a retryable operation; an
// exchange span covers one accounted source exchange; a wire span covers one
// request/response round trip to a remote source; a server span is a remote
// server's own timing fragment, grafted under the wire span that carried it
// (see Span.Graft and internal/wire's fragment extension).
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
// the query ID it belongs to.
//
// Spans live in their trace: it hands them out of blocks it owns, in ID
// order, and keeps their attributes in attribute blocks of its own, so
// starting a span, setting its attributes and grafting a fragment make no
// object per call. Attribute values keep the type they were given and
// errors are kept as values; nothing is turned into text until Snapshot or
// Export, so a trace nobody exports — the flight recorder drops most clean
// queries — pays for its blocks and no more. All methods are safe for
// concurrent use: the executor starts and ends spans from many goroutines.
type Trace struct {
	mu     sync.Mutex
	blocks [][]Span // the span with ID i is the i-th of the concatenation
	n      int64    // spans recorded
	free   []Attr   // unused tail of the current attribute block (len 0)
}

// Block sizes. A trace's first span block holds firstSpanBlock spans and
// each later one twice the one before, up to maxSpanBlock, so a short query
// does not pay for a long one's block. Attribute blocks hold attrBlock
// attributes.
const (
	firstSpanBlock = 16
	maxSpanBlock   = 128
	attrBlock      = 128
)

// NewTrace returns an empty span collector.
func NewTrace() *Trace { return &Trace{} }

// Span is one timed operation in a trace. Its fields are written under the
// trace's lock; readers use Snapshot (or Trace.Export). A nil *Span, which
// StartSpan returns when the context carries no trace, records nothing:
// every method is nil-safe, so call sites need no branches.
//
// A span StartSpan returns is also the context it returns: the context the
// span was started in, with the span as its current span. Spans live in
// their trace's blocks, which never move, so installing a span in a context
// costs no node of its own. Its context methods are the parent context's;
// they are not nil-safe, and a grafted span (Graft) is no context.
type Span struct {
	ctx      context.Context // the context the span was started in
	t        *Trace
	id       int64
	parent   int64 // 0 = root
	queryID  string
	kind     string
	name     string
	start    time.Time
	dur      time.Duration
	err      error
	attrs    []Attr // a key appears once
	finished bool
}

// Attr is one key/value attribute of a span. The value keeps the type it
// was given — a string, an integer or a duration — and becomes text only
// when the span is exported.
type Attr struct {
	Key  string
	str  string
	num  int64
	form attrForm
}

type attrForm uint8

const (
	formString attrForm = iota
	formInt
	formDuration
)

// String is a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, str: value} }

// Int is an integer-valued attribute, exported in decimal.
func Int(key string, value int64) Attr { return Attr{Key: key, num: value, form: formInt} }

// Duration is a duration-valued attribute, exported as time.Duration prints.
func Duration(key string, d time.Duration) Attr {
	return Attr{Key: key, num: int64(d), form: formDuration}
}

// text formats the attribute's value.
func (a Attr) text() string {
	switch a.form {
	case formInt:
		return strconv.FormatInt(a.num, 10)
	case formDuration:
		return time.Duration(a.num).String()
	}
	return a.str
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

// Deadline is the deadline of the context the span was started in.
func (s *Span) Deadline() (time.Time, bool) { return s.ctx.Deadline() }

// Done is the done channel of the context the span was started in.
func (s *Span) Done() <-chan struct{} { return s.ctx.Done() }

// Err is the error of the context the span was started in, not the error
// the span ended with.
func (s *Span) Err() error { return s.ctx.Err() }

// Value answers the current span's key with s and every other key as the
// context the span was started in does.
func (s *Span) Value(key any) any {
	if key == spanKey {
		return s
	}
	return s.ctx.Value(key)
}

// StartSpan begins a span named name of the given kind as a child of the
// context's current span, returning a derived context (in which the new span
// is current; it is the span itself) and the span. Without a Trace in ctx it
// returns ctx and a nil span.
func StartSpan(ctx context.Context, kind, name string) (context.Context, *Span) {
	o := From(ctx)
	if o.Live != nil && (kind == KindPhase || kind == KindStep) {
		// Keep the flight recorder's live registry current: phase and step
		// starts are the "where is this query right now" signal.
		o.Live.setStep(kind, name)
	}
	t := o.Trace
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if p, ok := ctx.Value(spanKey).(*Span); ok && p.t == t {
		parent = p.id
	}
	start := time.Now()
	t.mu.Lock()
	sp := t.add()
	sp.ctx, sp.parent, sp.queryID, sp.kind, sp.name, sp.start = ctx, parent, o.QueryID, kind, name, start
	t.mu.Unlock()
	return sp, sp
}

// add returns the trace's next span, with its ID set. Callers hold t.mu.
func (t *Trace) add() *Span {
	last := len(t.blocks) - 1
	if last < 0 || len(t.blocks[last]) == cap(t.blocks[last]) {
		size := firstSpanBlock
		if last >= 0 {
			size = min(2*cap(t.blocks[last]), maxSpanBlock)
		}
		t.blocks = append(t.blocks, make([]Span, 0, size))
		last++
	}
	b := t.blocks[last]
	b = b[:len(b)+1]
	t.blocks[last] = b
	t.n++
	sp := &b[len(b)-1]
	sp.t, sp.id = t, t.n
	return sp
}

// attrSpace returns an empty attribute list with room for n, carved from
// the trace's current attribute block. Callers hold t.mu.
func (t *Trace) attrSpace(n int) []Attr {
	if cap(t.free) < n {
		t.free = make([]Attr, 0, max(n, attrBlock))
	}
	list := t.free[:0:n]
	t.free = t.free[n:n]
	return list
}

// setAttrs records attrs on s, a key set before keeping its last value.
// Callers hold the trace's lock.
func (s *Span) setAttrs(attrs []Attr) {
next:
	for _, a := range attrs {
		for i := range s.attrs {
			if s.attrs[i].Key == a.Key {
				s.attrs[i] = a
				continue next
			}
		}
		if len(s.attrs) == cap(s.attrs) {
			grown := s.t.attrSpace(max(4, 2*len(s.attrs), len(attrs)))
			s.attrs = append(grown, s.attrs...)
		}
		s.attrs = append(s.attrs, a)
	}
}

// SetAttr records attributes on the span; a key set twice keeps its last
// value. Nil-safe.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.setAttrs(attrs)
	s.t.mu.Unlock()
}

// End finishes the span, recording err (its text is taken at export).
// Ending twice keeps the first end. Nil-safe.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	if !s.finished {
		s.finished, s.dur, s.err = true, now.Sub(s.start), err
	}
	s.t.mu.Unlock()
}

// Graft records a finished child of s lasting d: a piece of work whose
// duration is known but whose clock is not, such as a remote server's own
// account of one request (internal/wire's fragment extension). Only
// durations survive across machines, so the child is placed by assuming
// symmetric transit: d is clamped to s's duration and centered in it, which
// makes the child nest inside s however skewed the two clocks are. s must
// have ended; on a running or nil span Graft records nothing and returns
// nil. The child is born finished and needs no End.
func (s *Span) Graft(kind, name string, d time.Duration, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.finished {
		return nil
	}
	// The envelope is s's duration as exported, whole microseconds, so the
	// child nests inside s in the exported figures too.
	env := s.dur.Truncate(time.Microsecond)
	d = min(max(d, 0), env)
	g := t.add()
	g.parent, g.queryID, g.kind, g.name = s.id, s.queryID, kind, name
	g.start, g.dur, g.finished = s.start.Add((env-d)/2), d, true
	if len(attrs) > 0 {
		g.attrs = t.attrSpace(len(attrs))
		g.setAttrs(attrs)
	}
	return g
}

// data is the span's exported form. Callers hold the trace's lock.
func (s *Span) data() SpanData {
	d := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		QueryID:  s.queryID,
		Kind:     s.kind,
		Name:     s.name,
		Start:    s.start,
		Finished: s.finished,
	}
	if s.finished {
		d.DurationUS = s.dur.Microseconds()
	}
	if s.err != nil {
		d.Error = s.err.Error()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.text()
		}
	}
	return d
}

// Snapshot returns the span's current exported form. Nil-safe (returns a
// zero SpanData).
func (s *Span) Snapshot() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.data()
}

// Export returns every span recorded so far in ID order, which is start
// order: IDs are handed out under the trace's lock as spans start.
func (t *Trace) Export() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, t.n)
	for _, b := range t.blocks {
		for i := range b {
			out = append(out, b[i].data())
		}
	}
	return out
}

// Len reports how many spans have been recorded.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.n)
}

// JSON renders the trace as an indented JSON array of spans, the
// -trace-json export format of cmd/fusionq.
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Export(), "", "  ")
}

// SpanNames caches the names a layer gives its spans, each made of two
// parts, such as an operation and an endpoint: a name fixed per pair is
// joined once, not once per span. A lookup takes no lock and allocates
// nothing. The pairs a layer sees are few and fixed, so the cache is never
// trimmed. Safe for concurrent use.
type SpanNames struct {
	join func(a, b string) string
	mu   sync.Mutex // serializes misses
	m    atomic.Pointer[map[[2]string]string]
}

// NewSpanNames returns an empty cache of the names join makes.
func NewSpanNames(join func(a, b string) string) *SpanNames {
	return &SpanNames{join: join}
}

// Of returns join(a, b), joining it only the first time the pair is asked.
func (n *SpanNames) Of(a, b string) string {
	key := [2]string{a, b}
	if m := n.m.Load(); m != nil {
		if name, ok := (*m)[key]; ok {
			return name
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var old map[[2]string]string
	if m := n.m.Load(); m != nil {
		old = *m
	}
	if name, ok := old[key]; ok {
		return name
	}
	next := make(map[[2]string]string, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	name := n.join(a, b)
	next[key] = name
	n.m.Store(&next)
	return name
}
