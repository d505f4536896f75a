package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// AdminServer is a small HTTP listener exposing a Registry and, when one is
// attached, the flight recorder — the admin endpoint of cmd/fqsource and
// cmd/fusionq, and the feed of cmd/fqtop. Endpoints:
//
//	/metrics          Prometheus text exposition
//	/metrics.json     the same registry as JSON
//	/healthz          liveness probe ("ok")
//	/debug/queries    in-flight queries from the recorder's live registry
//	/debug/traces     index of retained query records
//	/debug/trace?qid= one full retained record, spans included (404 unknown)
//	/debug/endpoints  per-endpoint fabric scorecards, when supplied
//	/debug/runtime    the runtime's memory and collector (RuntimeHealth):
//	                  live heap, heap goal, GC cycles, GC CPU share, GC
//	                  pause percentiles, goroutines
//	/debug/pprof/     the runtime profiles of net/http/pprof (CPU, heap,
//	                  goroutines, execution trace), so a before/after
//	                  profile comes from a running process
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup
}

// AdminConfig configures an admin listener beyond the bare registry.
type AdminConfig struct {
	// Registry backs /metrics and /metrics.json (may be nil).
	Registry *Registry
	// Recorder backs the /debug/queries, /debug/traces and /debug/trace
	// endpoints; with a nil recorder they serve empty collections, so
	// pollers (cmd/fqtop) work against any admin listener.
	Recorder *Recorder
	// Scorecards, when non-nil, supplies the /debug/endpoints payload —
	// typically the mediator's per-endpoint fabric scorecards. The result
	// must be JSON-marshalable.
	Scorecards func() any
}

// writeJSON marshals v with the right Content-Type.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// ServeAdminConfig starts an admin listener on addr (e.g. "127.0.0.1:0")
// over cfg's registry, recorder and scorecard feed. The returned server is
// running; callers own its lifetime via Close.
func ServeAdminConfig(addr string, cfg AdminConfig) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen: %w", err)
	}
	reg, rec := cfg.Registry, cfg.Recorder
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.PrometheusText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		data, err := reg.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		live := rec.Live()
		if live == nil {
			live = []LiveQueryInfo{}
		}
		writeJSON(w, struct {
			Queries []LiveQueryInfo `json:"queries"`
		}{Queries: live})
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		idx := rec.Index()
		if idx == nil {
			idx = []RecordSummary{}
		}
		writeJSON(w, struct {
			Traces []RecordSummary `json:"traces"`
		}{Traces: idx})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		qid := r.URL.Query().Get("qid")
		if qid == "" {
			http.Error(w, "missing qid parameter", http.StatusBadRequest)
			return
		}
		record, ok := rec.Get(qid)
		if !ok {
			http.Error(w, fmt.Sprintf("no retained trace for qid %q", qid), http.StatusNotFound)
			return
		}
		writeJSON(w, record)
	})
	mux.HandleFunc("/debug/endpoints", func(w http.ResponseWriter, r *http.Request) {
		var cards any = []struct{}{}
		if cfg.Scorecards != nil {
			if c := cfg.Scorecards(); c != nil {
				cards = c
			}
		}
		writeJSON(w, struct {
			Endpoints any `json:"endpoints"`
		}{Endpoints: cards})
	})
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ReadRuntime())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a := &AdminServer{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		_ = a.srv.Serve(ln) // Serve returns ErrServerClosed on Close.
	}()
	return a, nil
}

// Addr returns the listener's address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the listener, waits out in-flight handlers (bounded), and
// waits for the serve goroutine to exit.
func (a *AdminServer) Close() error {
	//fqlint:ignore ctxfirst Close implements io.Closer; the shutdown budget has no caller context to inherit.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	a.wg.Wait()
	return err
}
