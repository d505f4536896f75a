// Command fqsource serves one CSV relation as an autonomous fusion-query
// source over the wire protocol, so mediators (cmd/fusionq or the library)
// can query it remotely.
//
// Usage:
//
//	fqsource -csv dmv_ca.csv -addr :7070 -caps bindings
//
// Flags:
//
//	-csv file    relation to serve (required)
//	-name name   source name (default: file basename)
//	-merge col   merge attribute (default: first column)
//	-addr addr   listen address (default 127.0.0.1:7070)
//	-caps tier   native | bindings | none (what the wrapper advertises)
//	-admin addr  serve /metrics (Prometheus text), /metrics.json and
//	             /healthz on this address (e.g. 127.0.0.1:9090)
//	-drain d     graceful-shutdown budget on SIGINT/SIGTERM (default 5s)
//
// On SIGINT or SIGTERM the server stops accepting connections and waits up
// to -drain for in-flight requests to finish before forcing the remaining
// connections closed. A second signal forces immediate shutdown.
//
// Every request is answered from the relation. The server keeps no cache of
// answers: what may be answered from memory is the mediator's to decide
// (the service's answer cache), since a source is autonomous and the
// mediator is the one that knows when to forget.
//
// With -admin, the process exposes its metrics registry over HTTP: wire
// request counts and latency per op. Request log lines carry the mediator's
// query ID (qid=...), so server-side logs correlate with mediator-side
// traces.
//
// # Serving as a replica
//
// Replica membership is a mediator-side concept: an fqsource process is
// just one physical endpoint, and it is the mediator's catalog that groups
// endpoints into a logical source. Run one fqsource per replica — each
// with its own -name and -addr, all serving the same relation — and name
// the shared logical source with "replicaOf" in the catalog:
//
//	fqsource -csv ca.csv -name dmv_ca_a -addr :7070 &
//	fqsource -csv ca.csv -name dmv_ca_b -addr :7071 &
//
//	{"name": "dmv_ca_a", "remote": "127.0.0.1:7070", "replicaOf": "dmv_ca"},
//	{"name": "dmv_ca_b", "remote": "127.0.0.1:7071", "replicaOf": "dmv_ca"}
//
// The mediator then plans against "dmv_ca" only; replica selection, hedged
// exchanges and failover happen in its source fabric (DESIGN.md §13), so
// killing one of the processes mid-query costs a failover, not the answer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fusionq/internal/csvio"
	"fusionq/internal/obs"
	"fusionq/internal/source"
	"fusionq/internal/wire"
)

func main() {
	var (
		csvPath   = flag.String("csv", "", "CSV file to serve (required)")
		name      = flag.String("name", "", "source name (default: file basename)")
		merge     = flag.String("merge", "", "merge attribute (default: first column)")
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		capsFlag  = flag.String("caps", "native", "capabilities: native | bindings | none")
		adminAddr = flag.String("admin", "", "serve /metrics and /healthz on this address")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM")
	)
	flag.Parse()
	if err := run(*csvPath, *name, *merge, *addr, *capsFlag, *adminAddr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "fqsource: %v\n", err)
		os.Exit(1)
	}
}

func run(csvPath, name, merge, addr, capsFlag, adminAddr string, drain time.Duration) error {
	srv, admin, err := start(csvPath, name, merge, addr, capsFlag, adminAddr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining; signal again to force shutdown")
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if admin != nil {
		_ = admin.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fqsource: forced shutdown: %v\n", err)
	}
	return nil
}

// start loads the relation and begins serving it, plus the admin listener
// when adminAddr is non-empty; callers own both returned servers' lifetimes
// (the admin server is nil without -admin).
func start(csvPath, name, merge, addr, capsFlag, adminAddr string) (*wire.Server, *obs.AdminServer, error) {
	if csvPath == "" {
		return nil, nil, fmt.Errorf("-csv is required")
	}
	rel, err := csvio.Load(csvPath, merge)
	if err != nil {
		return nil, nil, err
	}
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(csvPath), filepath.Ext(csvPath))
	}
	caps, err := source.ParseTier(capsFlag)
	if err != nil {
		return nil, nil, err
	}
	src := source.NewWrapper(name, source.NewRowBackend(rel), caps)
	reg := obs.NewRegistry()
	srv, err := wire.ServeConfig(src, addr, wire.Config{Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	var admin *obs.AdminServer
	if adminAddr != "" {
		// No flight recorder on a source server (queries begin at the
		// mediator); the /debug/* endpoints serve empty collections so any
		// admin listener feeds cmd/fqtop.
		admin, err = obs.ServeAdminConfig(adminAddr, obs.AdminConfig{Registry: reg})
		if err != nil {
			_ = srv.Close()
			return nil, nil, err
		}
		fmt.Printf("admin endpoint on http://%s/metrics\n", admin.Addr())
	}
	fmt.Printf("serving %s (%d tuples, %s) on %s\n", name, rel.Len(), caps, srv.Addr())
	return srv, admin, nil
}
