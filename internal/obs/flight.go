package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Recorder is the always-on flight recorder: a bounded ring of completed
// query records with tail-based retention, plus a live registry of queries
// currently in flight. The mediator begins a LiveQuery per query and ends it
// with the outcome; the recorder decides what to keep.
//
// Retention is tail-based: every interesting record — error, slow, hedged,
// failed-over, or repaired — is kept, while boring (fast, clean) queries are
// sampled one in sampleEvery. Past recorderCapacity records or
// recorderMaxBytes the recorder evicts oldest-boring-first, so the
// interesting tail survives workloads that would otherwise wash it out of a
// plain ring buffer. This is the in-process analogue of tail-based trace
// sampling: the keep/drop decision happens after the outcome is known, never
// before.
//
// All methods are safe for concurrent use, and a nil *Recorder (like a nil
// *LiveQuery) is a no-op, so callers never branch on whether recording is
// enabled.
type Recorder struct {
	metrics *Registry

	mu        sync.Mutex
	live      map[string]*LiveQuery
	ring      []*QueryRecord // oldest first
	bytes     int
	boringSeq uint64
}

// The recorder's bounds.
const (
	// recorderCapacity is the most records the recorder retains.
	recorderCapacity = 512
	// recorderMaxBytes bounds the approximate footprint of the retained
	// records (approxSize).
	recorderMaxBytes = 4 << 20
	// slowQuery marks a query that takes at least this long as slow: always
	// retained and counted in MSlowQueries.
	slowQuery = 250 * time.Millisecond
	// sampleEvery keeps one in this many boring (fast, clean) queries.
	sampleEvery = 16
)

// RecorderConfig says where a Recorder reports itself.
type RecorderConfig struct {
	// Metrics receives the recorder's own counters and gauges (may be nil).
	Metrics *Registry
}

// NewRecorder returns an empty recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{metrics: cfg.Metrics, live: map[string]*LiveQuery{}}
}

// LiveQuery is one in-flight query's entry in the recorder's live registry.
// It rides in the query's Obs; the tracer and the source instrumentation
// update it as the query progresses. All methods are nil-safe.
type LiveQuery struct {
	rec   *Recorder
	qid   string
	start time.Time

	mu      sync.Mutex
	text    fmt.Stringer // rendered only for a kept record or a snapshot
	phase   string
	step    string
	bytes   int64
	sources []liveSource // in the order each was first charged
}

// liveSources is the room a live query makes for its sources at its first
// exchange; a query over more grows it.
const liveSources = 8

type liveSource struct {
	name      string
	exchanges int
	bytes     int64
	lastOp    string
}

// LiveSourceInfo is one source's accumulated state within a live query.
type LiveSourceInfo struct {
	Exchanges int    `json:"exchanges"`
	Bytes     int64  `json:"bytes"`
	LastOp    string `json:"lastOp,omitempty"`
}

// LiveQueryInfo is the exported snapshot of one in-flight query.
type LiveQueryInfo struct {
	QueryID   string                    `json:"queryId"`
	Text      string                    `json:"text,omitempty"`
	Start     time.Time                 `json:"start"`
	ElapsedUS int64                     `json:"elapsedUs"`
	Phase     string                    `json:"phase,omitempty"`
	Step      string                    `json:"step,omitempty"`
	Bytes     int64                     `json:"bytes"`
	Sources   map[string]LiveSourceInfo `json:"sources,omitempty"`
}

// QueryRecord is one completed query as retained by the recorder: outcome,
// fabric activity, per-source traffic, and the full span trace.
type QueryRecord struct {
	QueryID    string    `json:"queryId"`
	Text       string    `json:"text,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"durationUs"`
	Status     string    `json:"status"` // ok | error
	Error      string    `json:"error,omitempty"`
	Items      int       `json:"items"`
	Bytes      int64     `json:"bytes"`
	Hedges     int       `json:"hedges,omitempty"`
	Failovers  int       `json:"failovers,omitempty"`
	Repaired   bool      `json:"repaired,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	// Sampled marks a boring record retained only as a 1-in-N sample.
	Sampled bool                      `json:"sampled,omitempty"`
	Sources map[string]LiveSourceInfo `json:"sources,omitempty"`
	Spans   []SpanData                `json:"spans,omitempty"`

	approxBytes int
}

// RecordSummary is the index form of a QueryRecord (no span bodies), the
// payload of the /debug/traces endpoint.
type RecordSummary struct {
	QueryID    string    `json:"queryId"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"durationUs"`
	Status     string    `json:"status"`
	Error      string    `json:"error,omitempty"`
	Items      int       `json:"items"`
	Bytes      int64     `json:"bytes"`
	Hedges     int       `json:"hedges,omitempty"`
	Failovers  int       `json:"failovers,omitempty"`
	Repaired   bool      `json:"repaired,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	Sampled    bool      `json:"sampled,omitempty"`
	Spans      int       `json:"spans"`
}

// EndInfo carries a query's outcome into Recorder.End.
type EndInfo struct {
	Err       error
	Trace     *Trace
	Items     int
	Hedges    int
	Failovers int
	Repaired  bool
}

// Text is a query text that is already a string, for Begin.
type Text string

// String implements fmt.Stringer.
func (t Text) String() string { return string(t) }

// Begin registers a query in the live registry and returns its entry, to be
// installed in the query's Obs. The query's text is rendered from text only
// when the record is kept or a snapshot of the live registry is taken, so a
// query sampled out never renders it. Nil-safe: a nil recorder returns a
// nil LiveQuery, whose methods are all no-ops.
func (r *Recorder) Begin(qid string, text fmt.Stringer) *LiveQuery {
	if r == nil {
		return nil
	}
	lq := &LiveQuery{rec: r, qid: qid, start: time.Now(), text: text}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live[qid] = lq
	// The gauge is set under the lock, so the last value written is the
	// registry's size whatever order concurrent queries begin and end in.
	r.metrics.Gauge(MLiveQueries).Set(int64(len(r.live)))
	return lq
}

// setStep records where the query currently is; called from StartSpan for
// phase and step spans.
func (q *LiveQuery) setStep(kind, name string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if kind == KindPhase {
		q.phase = name
	} else {
		q.step = name
	}
	q.mu.Unlock()
}

// Exchange accumulates one source exchange's traffic against the live
// query: n payload bytes moved for op against source. Nil-safe.
func (q *LiveQuery) Exchange(src, op string, n int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	i := slices.IndexFunc(q.sources, func(ls liveSource) bool { return ls.name == src })
	if i < 0 {
		if q.sources == nil {
			q.sources = make([]liveSource, 0, liveSources)
		}
		i = len(q.sources)
		q.sources = append(q.sources, liveSource{name: src})
	}
	ls := &q.sources[i]
	ls.exchanges++
	ls.bytes += n
	ls.lastOp = op
	q.bytes += n
	q.mu.Unlock()
}

// sourceInfos exports the query's sources, nil when it charged none. Callers
// hold q.mu.
func (q *LiveQuery) sourceInfos() map[string]LiveSourceInfo {
	if len(q.sources) == 0 {
		return nil
	}
	out := make(map[string]LiveSourceInfo, len(q.sources))
	for _, ls := range q.sources {
		out[ls.name] = LiveSourceInfo{Exchanges: ls.exchanges, Bytes: ls.bytes, LastOp: ls.lastOp}
	}
	return out
}

func (q *LiveQuery) snapshot() LiveQueryInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	info := LiveQueryInfo{
		QueryID:   q.qid,
		Text:      q.text.String(),
		Start:     q.start,
		ElapsedUS: time.Since(q.start).Microseconds(),
		Phase:     q.phase,
		Step:      q.step,
		Bytes:     q.bytes,
	}
	info.Sources = q.sourceInfos()
	return info
}

// Live returns a snapshot of every in-flight query, oldest first.
func (r *Recorder) Live() []LiveQueryInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lqs := make([]*LiveQuery, 0, len(r.live))
	for _, lq := range r.live {
		lqs = append(lqs, lq)
	}
	r.mu.Unlock()
	out := make([]LiveQueryInfo, 0, len(lqs))
	for _, lq := range lqs {
		out = append(out, lq.snapshot())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Start.Equal(out[b].Start) {
			return out[a].Start.Before(out[b].Start)
		}
		return out[a].QueryID < out[b].QueryID
	})
	return out
}

// interesting reports whether a record is exempt from sampling and from
// boring-first eviction.
func (rec *QueryRecord) interesting() bool {
	return rec.Status != "ok" || rec.Slow || rec.Hedges > 0 || rec.Failovers > 0 || rec.Repaired
}

// approxSize estimates a record's retained footprint, the currency of the
// recorderMaxBytes bound. It only needs to be proportional and stable, not
// exact.
func (rec *QueryRecord) approxSize() int {
	n := 256 + len(rec.QueryID) + len(rec.Text) + len(rec.Error)
	for _, sp := range rec.Spans {
		n += 96 + len(sp.Kind) + len(sp.Name) + len(sp.QueryID) + len(sp.Error)
		for k, v := range sp.Attrs {
			n += 16 + len(k) + len(v)
		}
	}
	n += 64 * len(rec.Sources)
	return n
}

// End completes a live query: it leaves the live registry and its record
// enters retention. The outcome decides retention before anything is
// copied: a sampled-out query costs no export of its trace, whatever its
// size. Nil-safe on both the recorder and the entry.
func (r *Recorder) End(lq *LiveQuery, info EndInfo) {
	if r == nil || lq == nil {
		return
	}
	dur := time.Since(lq.start)
	rec := &QueryRecord{
		QueryID:    lq.qid,
		Start:      lq.start,
		DurationUS: dur.Microseconds(),
		Status:     "ok",
		Items:      info.Items,
		Hedges:     info.Hedges,
		Failovers:  info.Failovers,
		Repaired:   info.Repaired,
		Slow:       dur >= slowQuery,
	}
	if info.Err != nil {
		rec.Status = "error"
	}
	m := r.metrics
	if rec.Slow {
		m.Counter(MSlowQueries).Inc()
	}
	if !rec.interesting() {
		r.mu.Lock()
		r.boringSeq++
		if r.boringSeq%sampleEvery != 0 {
			r.leave(lq)
			r.mu.Unlock()
			m.Counter(MTraceDropped, "reason", "sampled").Inc()
			return
		}
		r.mu.Unlock()
		rec.Sampled = true
	}

	if info.Err != nil {
		rec.Error = info.Err.Error()
	}
	lq.mu.Lock()
	rec.Text = lq.text.String()
	rec.Bytes = lq.bytes
	rec.Sources = lq.sourceInfos()
	lq.mu.Unlock()
	if info.Trace != nil {
		rec.Spans = info.Trace.Export()
	}
	rec.approxBytes = rec.approxSize()

	r.mu.Lock()
	r.leave(lq)
	r.ring = append(r.ring, rec)
	r.bytes += rec.approxBytes
	evicted := 0
	for (len(r.ring) > recorderCapacity || r.bytes > recorderMaxBytes) && len(r.ring) > 0 {
		idx := 0
		for i, q := range r.ring {
			if !q.interesting() {
				idx = i
				break
			}
		}
		r.bytes -= r.ring[idx].approxBytes
		r.ring = append(r.ring[:idx], r.ring[idx+1:]...)
		evicted++
	}
	m.Gauge(MTraceBytes).Set(int64(r.bytes))
	r.mu.Unlock()

	class := "interesting"
	if rec.Sampled {
		class = "sampled"
	}
	m.Counter(MTraceRetained, "class", class).Inc()
	if evicted > 0 {
		m.Counter(MTraceDropped, "reason", "evicted").Add(int64(evicted))
	}
}

// leave drops lq from the live registry. Callers hold r.mu, under which the
// gauge is set, as Begin sets it.
func (r *Recorder) leave(lq *LiveQuery) {
	delete(r.live, lq.qid)
	r.metrics.Gauge(MLiveQueries).Set(int64(len(r.live)))
}

// Index returns summaries of every retained record, oldest first.
func (r *Recorder) Index() []RecordSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecordSummary, 0, len(r.ring))
	for _, rec := range r.ring {
		out = append(out, RecordSummary{
			QueryID: rec.QueryID, Start: rec.Start, DurationUS: rec.DurationUS,
			Status: rec.Status, Error: rec.Error, Items: rec.Items, Bytes: rec.Bytes,
			Hedges: rec.Hedges, Failovers: rec.Failovers, Repaired: rec.Repaired,
			Slow: rec.Slow, Sampled: rec.Sampled, Spans: len(rec.Spans),
		})
	}
	return out
}

// Get returns the full record for qid, if retained.
func (r *Recorder) Get(qid string) (*QueryRecord, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Newest wins, though query IDs are process-unique in practice.
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].QueryID == qid {
			return r.ring[i], true
		}
	}
	return nil, false
}

// RetainedBytes reports the recorder's current approximate footprint.
func (r *Recorder) RetainedBytes() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// ExportJSON dumps every retained record — the flight-recorder artifact the
// oracle soak uploads from CI.
func (r *Recorder) ExportJSON() ([]byte, error) {
	if r == nil {
		return []byte("{\"records\":[]}\n"), nil
	}
	r.mu.Lock()
	recs := make([]*QueryRecord, len(r.ring))
	copy(recs, r.ring)
	r.mu.Unlock()
	return json.MarshalIndent(struct {
		Records []*QueryRecord `json:"records"`
	}{Records: recs}, "", "  ")
}
