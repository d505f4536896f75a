package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/wire"
)

// ServerConfig tunes a service Server: it is the configuration of the
// server's listener. Logf also receives the per-query correlation lines.
// Metrics receives the server's wire metrics (fq_wire_requests_total and
// friends, op=query), nil meaning the engine's registry; it is not installed
// in the dispatch context.
type ServerConfig = wire.Config

// Server exposes an Engine over TCP using the wire protocol's query
// extension: clients send OpQuery requests with tenant, conditions and the
// stream flag, and receive answer items (optionally chunked) with the
// shed/cache annotations on the final chunk. OpMeta advertises the service
// (Meta.Queries). It is a wire.Listener whose handler dispatches whole
// fusion queries instead of single source operations.
type Server struct {
	*wire.Listener
	eng     *Engine
	metrics *obs.Registry
}

// Serve starts a service server for eng on addr (e.g. "127.0.0.1:0") and
// begins accepting connections in the background.
func Serve(eng *Engine, addr string, cfg ServerConfig) (*Server, error) {
	s := &Server{eng: eng, metrics: cfg.Metrics}
	if s.metrics == nil {
		s.metrics = eng.metrics
	}
	obs.DescribeAll(s.metrics)
	// The registry stays out of the listener's context: the engine and its
	// mediator charge the registries they were built with.
	cfg.Metrics = nil
	var err error
	s.Listener, err = wire.Listen(addr, cfg, s.serve)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Shutdown drains the server gracefully: admission starts shedding new
// queries with reason draining and in-flight queries finish, then the
// listener drains (responses are written, idle connections nudged closed).
// If ctx expires first, remaining work is force-closed and ctx's error
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.eng.adm.Drain(ctx)
	if err := s.Listener.Shutdown(ctx); err != nil {
		return err
	}
	return drainErr
}

// serve dispatches one request, charging the wire metrics and logging the
// query correlation line.
func (s *Server) serve(ctx context.Context, req wire.Request) wire.Response {
	start := time.Now()
	resp := s.dispatch(ctx, req)
	elapsed := time.Since(start)
	resp.QueryID = req.QueryID

	met := s.metrics
	met.Counter(obs.MWireRequests, "op", req.Op).Inc()
	if resp.Error != "" {
		met.Counter(obs.MWireErrors, "op", req.Op).Inc()
	}
	met.Histogram(obs.MWireSeconds).Observe(elapsed.Seconds())

	if req.Op == wire.OpQuery {
		logQuery(s.Logf, req, &resp, elapsed)
	}
	return resp
}

// logQuery writes a query's correlation line to logf. The line is
// formatted only when logf writes it, and handing it over allocates once:
// logf's one argument is the line, which holds it.
func logQuery(logf func(string, ...interface{}), req wire.Request, resp *wire.Response, elapsed time.Duration) {
	line := &queryLog{tenant: req.Tenant, conds: len(req.Conds), stream: req.Stream, items: len(resp.Items),
		elapsed: elapsed, planCached: resp.PlanCached, answerCached: resp.AnswerCached, code: resp.Code, err: resp.Error}
	line.arg[0] = line
	logf("%s", line.arg[:]...)
}

// queryLog is a query's correlation line, and the argument list that hands
// it to a log.
type queryLog struct {
	arg                      [1]interface{}
	tenant                   string
	conds, items             int
	stream                   bool
	elapsed                  time.Duration
	planCached, answerCached bool
	code, err                string
}

func (l *queryLog) String() string {
	status := "ok"
	switch {
	case l.code != "":
		status = l.code
	case l.err != "":
		status = fmt.Sprintf("error=%q", l.err)
	}
	return fmt.Sprintf("service: tenant=%s conds=%d stream=%v items=%d elapsed=%s planCached=%v answerCached=%v %s",
		l.tenant, l.conds, l.stream, l.items, l.elapsed.Round(time.Microsecond), l.planCached, l.answerCached, status)
}

// dispatch executes one request against the engine. ctx is the listener's:
// force-closing the server aborts in-flight queries.
func (s *Server) dispatch(ctx context.Context, req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpMeta:
		schema := s.eng.med.Schema()
		return wire.Response{Meta: &wire.Meta{
			Version:   wire.ProtocolVersion,
			Name:      "fqd",
			Merge:     schema.Merge(),
			Columns:   wire.EncodeSchema(schema),
			Chunking:  true,
			Queries:   true,
			ItemBlock: true,
		}}
	case wire.OpQuery:
		res, err := s.eng.ladder(ctx, Request{Tenant: req.Tenant, Stream: req.Stream}, req.Conds)
		if err != nil {
			resp := wire.Response{Error: err.Error()}
			var shed *ShedError
			if errors.As(err, &shed) {
				resp.Code = "shed:" + string(shed.Reason)
			}
			return resp
		}
		resp := wire.Response{PlanCached: res.PlanCached, AnswerCached: res.AnswerCached}
		if ans := res.Answer; ans.Owned && !res.AnswerCached && ans.Repair == nil && ans.Records == nil {
			// The answer is the query's alone (the answer cache keeps a
			// copy): the listener gives its buffer back once written.
			resp.Give(ans.Items)
		} else {
			resp.Items = ans.Items.Items() // the listener only reads them
		}
		if res.encoded.Len() > 0 {
			resp.Encoded = &res.encoded
		}
		return resp
	default:
		return wire.Response{Error: fmt.Sprintf("service: unsupported op %q (this peer is a mediator service; see Meta.Queries)", req.Op)}
	}
}
