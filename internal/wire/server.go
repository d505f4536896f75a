package wire

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// Server exposes one wrapped source over TCP: a Listener whose handler runs
// each request against the source.
type Server struct {
	*Listener
	src source.Source
	cfg Config

	// inflight counts requests currently in dispatch across all
	// connections; fragments report it as their queue depth.
	inflight atomic.Int64
}

// ServeConfig starts a server for src on the given address (e.g.
// "127.0.0.1:0") and begins accepting connections in the background; the
// zero Config is the default configuration.
func ServeConfig(src source.Source, addr string, cfg Config) (*Server, error) {
	obs.DescribeAll(cfg.Metrics)
	s := &Server{src: src, cfg: cfg.withDefaults()}
	var err error
	s.Listener, err = Listen(addr, s.cfg, s.serve)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// requestBytes counts a request's semantic payload bytes: condition, item
// and filter text. Framing and field names are deliberately excluded — the
// fragment and the fq_wire_bytes_* counters must agree on one definition,
// and payload bytes are the quantity the paper's cost model traffics in.
func requestBytes(req Request) int {
	n := len(req.Cond) + len(req.Item) + len(req.Filter)
	for _, it := range req.Items {
		n += len(it)
	}
	return n
}

// responseBytes counts a response's semantic payload bytes: items, tuple
// values, a matched binding, a summary, error text.
func responseBytes(resp Response) int {
	n := len(resp.Error)
	for _, it := range resp.Items {
		n += len(it)
	}
	for _, t := range resp.Tuples {
		for _, v := range t {
			n += len(v.Raw)
		}
	}
	if resp.Match {
		n++
	}
	if resp.Stats != nil {
		n += resp.Stats.Size()
	}
	return n
}

// serve is the listener's handler: it runs one request through dispatch
// with correlation and accounting. The request's query ID is installed in
// the dispatch context and echoed in the response, a structured log line
// ties the server-side work to the mediator-side query, and the wire metrics
// are charged. When the request asked for a fragment, the response carries
// one with every field but the chunk/total timings filled in — the listener
// completes those when it emits the final chunk.
func (s *Server) serve(ctx context.Context, req Request) Response {
	recv := time.Now()
	if req.QueryID != "" {
		o := *obs.From(ctx)
		o.QueryID = req.QueryID
		ctx = obs.With(ctx, &o)
	}
	depth := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	resp, parse := s.dispatch(ctx, req)
	elapsed := time.Since(start)
	resp.QueryID = req.QueryID

	bytesIn, bytesOut := requestBytes(req), responseBytes(resp)
	met := s.cfg.Metrics
	met.Counter(obs.MWireRequests, "op", req.Op).Inc()
	if resp.Error != "" {
		met.Counter(obs.MWireErrors, "op", req.Op).Inc()
	}
	met.Histogram(obs.MWireSeconds).Observe(elapsed.Seconds())
	met.Counter(obs.MWireBytesIn, "op", req.Op).Add(int64(bytesIn))
	met.Counter(obs.MWireBytesOut, "op", req.Op).Add(int64(bytesOut))

	if req.QueryID != "" {
		s.logRequest(req, elapsed, resp.Error)
	}
	if req.Frag {
		scan := elapsed - parse
		resp.Frag = &Fragment{
			Source:     s.src.Name(),
			Op:         req.Op,
			QueueUS:    start.Sub(recv).Microseconds(),
			QueueDepth: int(depth) - 1,
			ParseUS:    parse.Microseconds(),
			ScanUS:     scan.Microseconds(),
			BytesIn:    bytesIn,
			BytesOut:   bytesOut,
		}
	}
	if resp.Stream != nil {
		resp.Stream = &servedStream{Iter: resp.Stream, ctx: ctx, frag: resp.Frag,
			bytesOut: met.Counter(obs.MWireBytesOut, "op", req.Op), errs: met.Counter(obs.MWireErrors, "op", req.Op)}
	}
	return resp
}

// logRequest writes a request's correlation line to the log. The line is
// formatted only when the log writes it, and handing it over allocates
// once: Logf's one argument is the line, which holds it.
func (s *Server) logRequest(req Request, elapsed time.Duration, errText string) {
	line := &requestLog{qid: req.QueryID, op: req.Op, source: s.src.Name(), elapsed: elapsed, err: errText}
	line.arg[0] = line
	s.cfg.Logf("%s", line.arg[:]...)
}

// requestLog is a request's correlation line, and the argument list that
// hands it to a log.
type requestLog struct {
	arg             [1]interface{}
	qid, op, source string
	elapsed         time.Duration
	err             string
}

func (l *requestLog) String() string {
	status := "ok"
	if l.err != "" {
		status = fmt.Sprintf("error=%q", l.err)
	}
	return fmt.Sprintf("wire: qid=%s op=%s source=%s elapsed=%s %s",
		l.qid, l.op, l.source, l.elapsed.Round(time.Microsecond), status)
}

// servedStream is a streamed answer on its way out through the listener:
// each batch is pulled under the request's context and its bytes are
// charged as it passes, to the wire counter and to the fragment the final
// chunk carries, so both count what the stream delivered.
type servedStream struct {
	set.Iter
	ctx            context.Context
	frag           *Fragment
	bytesOut, errs obs.Counter
}

func (st *servedStream) Next(context.Context) ([]string, error) {
	batch, err := st.Iter.Next(st.ctx)
	if err != nil {
		st.errs.Inc()
		return nil, err
	}
	n := 0
	for _, v := range batch {
		n += len(v)
	}
	st.bytesOut.Add(int64(n))
	if st.frag != nil {
		st.frag.BytesOut += n
	}
	return batch, nil
}

func errorResponse(err error) Response { return Response{Error: err.Error()} }

// dispatch executes one request against the wrapped source and reports how
// long reading the operation out of the request took (condition and filter
// parsing, the fragment's parse phase). ctx descends from the listener's:
// force-closing the server aborts in-flight operations.
func (s *Server) dispatch(ctx context.Context, req Request) (Response, time.Duration) {
	if req.Op == OpMeta {
		tuples, distinct, bytes := s.src.Card()
		caps := s.src.Caps()
		return Response{Meta: &Meta{
			Version:        ProtocolVersion,
			Name:           s.src.Name(),
			Merge:          s.src.Schema().Merge(),
			Columns:        EncodeSchema(s.src.Schema()),
			NativeSemijoin: caps.NativeSemijoin,
			PassedBindings: caps.PassedBindings,
			BloomSemijoin:  caps.BloomSemijoin,
			Tuples:         tuples,
			Distinct:       distinct,
			Bytes:          bytes,
			Chunking:       true,
			Fragments:      true,
			Stats:          true,
			ItemBlock:      true,
		}}, 0
	}
	start := time.Now()
	call, err := decodeCall(req)
	parse := time.Since(start)
	if err != nil {
		return errorResponse(err), parse
	}
	reply, err := source.Do(ctx, s.src, call)
	if err != nil {
		return errorResponse(err), parse
	}
	return encodeReply(reply), parse
}
