// Command fusionq runs a fusion query end to end: it registers local CSV
// sources and/or remote wire sources, detects the fusion pattern in the SQL,
// optimizes with the chosen algorithm, executes the plan, and reports the
// answer and the execution accounting.
//
// Usage:
//
//	fusionq -sql "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'" \
//	        -csv r1.csv -csv r2.csv -csv r3.csv
//
//	fusionq -sql "..." -remote 10.0.0.1:7070 -remote 10.0.0.2:7070
//
// Flags:
//
//	-csv file       local CSV source (repeatable); name is the file basename
//	-remote addr    remote wire source (repeatable)
//	-catalog file   JSON catalog describing all sources (replaces -csv/-remote)
//	-merge col      merge attribute (default: first CSV column)
//	-algo name      filter | sj | sja | sja+ | greedy-sj | greedy-sja |
//	                greedy-adaptive-sja | greedy-sja+ | rt-sja | adaptive
//	                (README "Algorithms")
//	-caps tier      capability tier for CSV sources: native | bindings | none
//	-conns n        connection capacity of each -csv/-remote source's link: a
//	                round's source queries always overlap across sources, and
//	                this is how many may be in flight at one source (0: one;
//	                a catalog states maxConns per link)
//	-explain        print the plan without executing it
//	-fetch          ask for the answer's full records too and print them (the
//	                planner picks a fetch round or the final round's queries)
//	-timeout d      per-query wall-clock budget (e.g. 5s; 0 means none)
//	-trace-json f   write the query's span trace (query → plan phases →
//	                steps → retry attempts → exchanges) as JSON to f
//	                ("-" for stdout), for offline analysis
//	-spans          print the query's span tree; exchanges over wire-backed
//	                sources show the mediator-wait / server-work / wire-time
//	                split from the server's grafted timing fragment
//	-admin addr     serve the admin endpoints (/metrics, /debug/queries,
//	                /debug/traces, /debug/trace?qid=, /debug/endpoints) —
//	                the feed of cmd/fqtop
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fusionq/internal/catalog"
	"fusionq/internal/core"
	"fusionq/internal/exec"
	"fusionq/internal/obs"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		csvs      stringList
		remotes   stringList
		sql       = flag.String("sql", "", "fusion query in SQL form (required)")
		merge     = flag.String("merge", "", "merge attribute for CSV sources (default: first column)")
		algo      = flag.String("algo", "sja+", "optimization algorithm")
		capsFlag  = flag.String("caps", "native", "CSV source capabilities: native | bindings | none")
		conns     = flag.Int("conns", 0, "connection capacity of each -csv/-remote source's link: how many exchanges with one source may overlap (0: one)")
		catalogF  = flag.String("catalog", "", "JSON catalog of sources (replaces -csv/-remote)")
		explain   = flag.Bool("explain", false, "print the plan, do not execute")
		timeout   = flag.Duration("timeout", 0, "per-query wall-clock budget (0: none)")
		fetch     = flag.Bool("fetch", false, "ask for the answer's full records too and print them")
		trace     = flag.Bool("trace", false, "print the per-step execution trace")
		stream    = flag.Bool("stream", false, "execute as a pull-based streaming pipeline (bounded batches, early first answer)")
		traceJSON = flag.String("trace-json", "", `write the query's span trace as JSON to this file ("-" for stdout)`)
		spans     = flag.Bool("spans", false, "print the query's span tree with per-exchange wait/server/wire split")
		admin     = flag.String("admin", "", "serve admin endpoints (/metrics, /debug/*) on this address (e.g. 127.0.0.1:9100)")
		shell     = flag.Bool("i", false, "interactive shell: read SQL statements from stdin")
	)
	flag.Var(&csvs, "csv", "local CSV source file (repeatable)")
	flag.Var(&remotes, "remote", "remote source address (repeatable)")
	flag.Parse()

	ctx := context.Background()
	opts := core.Options{Algorithm: core.Algorithm(*algo), Streaming: *stream, Records: *fetch}
	if *shell {
		m, closer, err := assemble(ctx, csvs, remotes, *catalogF, *merge, *capsFlag, *conns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusionq: %v\n", err)
			os.Exit(1)
		}
		defer closer()
		if *admin != "" {
			adm, err := serveAdmin(m, *admin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fusionq: %v\n", err)
				os.Exit(1)
			}
			defer func() { _ = adm.Close() }()
			fmt.Fprintf(os.Stderr, "fusionq: admin endpoints on http://%s\n", adm.Addr())
		}
		if err := repl(ctx, m, os.Stdin, os.Stdout, opts, *trace, *timeout); err != nil {
			fmt.Fprintf(os.Stderr, "fusionq: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(ctx, *sql, csvs, remotes, *catalogF, *merge, *capsFlag, *conns, opts, *timeout, *explain, *trace, *traceJSON, *spans, *admin); err != nil {
		fmt.Fprintf(os.Stderr, "fusionq: %v\n", err)
		os.Exit(1)
	}
}

// serveAdmin starts the admin listener over the mediator's observability
// state: a dedicated metrics registry, the always-on flight recorder, and
// the replica-fabric scorecards.
func serveAdmin(m *core.Mediator, addr string) (*obs.AdminServer, error) {
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	return obs.ServeAdminConfig(addr, obs.AdminConfig{
		Registry:   reg,
		Recorder:   m.Recorder(),
		Scorecards: func() any { return m.Scorecards() },
	})
}

// withTimeout bounds ctx by the -timeout budget; zero means none.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// run runs one query; trace prints the answer's per-step execution trace,
// which every query keeps.
func run(ctx context.Context, sql string, csvs, remotes []string, catalogPath, merge, capsFlag string, conns int, opts core.Options, timeout time.Duration, explain, trace bool, traceJSON string, spans bool, adminAddr string) error {
	if sql == "" {
		return fmt.Errorf("-sql is required")
	}
	m, closer, err := assemble(ctx, csvs, remotes, catalogPath, merge, capsFlag, conns)
	if err != nil {
		return err
	}
	defer closer()
	if adminAddr != "" {
		adm, err := serveAdmin(m, adminAddr)
		if err != nil {
			return err
		}
		defer func() { _ = adm.Close() }()
		fmt.Fprintf(os.Stderr, "fusionq: admin endpoints on http://%s\n", adm.Addr())
	}

	if explain {
		return explainPlan(ctx, m, os.Stdout, sql, opts)
	}

	qctx, cancel := withTimeout(ctx, timeout)
	ans, err := m.Query(qctx, sql, opts)
	cancel()
	if ans != nil && traceJSON != "" {
		// A failed query that reached execution still has a partial trace
		// worth exporting.
		if werr := writeTrace(ans, traceJSON); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	if spans || traceJSON != "" {
		fmt.Printf("query id: %s\n", ans.QueryID)
	}
	fmt.Printf("answer (%d items): %s\n", ans.Items.Len(), ans.Items)
	fmt.Printf("plan class: %s, estimated cost %.4f s\n", ans.Plan.Class, ans.EstimatedCost)
	fmt.Printf("execution: %d source queries, total work %v, response time %v\n",
		ans.Exec.SourceQueries, ans.Exec.TotalWork, ans.Exec.ResponseTime)
	if opts.Streaming && ans.Exec.FirstAnswer > 0 {
		fmt.Printf("streaming: first answer after %v, peak intermediate bytes %d\n",
			ans.Exec.FirstAnswer, ans.Exec.PeakBytes)
	}
	if trace {
		fmt.Printf("\ntrace:\n%s", exec.RenderTrace(ans.Exec.Trace))
	}
	if spans && ans.Trace != nil {
		fmt.Printf("\nspans:\n%s", obs.RenderTrace(ans.Trace.Export()))
	}
	if ans.Records != nil {
		fmt.Printf("\nrecords (%s): %d full records\n%s", ans.Plan.Records, ans.Records.Len(), ans.Records)
	}
	return nil
}

// writeTrace exports the answer's span trace as JSON to path ("-" means
// stdout).
func writeTrace(ans *core.Answer, path string) error {
	if ans.Trace == nil {
		return nil
	}
	data, err := ans.Trace.JSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// assemble builds the mediator from a catalog: the named file's, or one made
// of the -csv/-remote flags, whose sources sit behind default links of conns
// connections each.
func assemble(ctx context.Context, csvs, remotes []string, catalogPath, merge, capsFlag string, conns int) (*core.Mediator, func(), error) {
	if catalogPath != "" {
		cat, err := catalog.Load(catalogPath)
		if err != nil {
			return nil, nil, err
		}
		return cat.Build(ctx)
	}
	if len(csvs)+len(remotes) == 0 {
		return nil, nil, fmt.Errorf("register at least one -csv or -remote source, or use -catalog")
	}
	cat := &catalog.Catalog{Merge: merge}
	link := &catalog.LinkSpec{MaxConns: conns}
	for _, path := range csvs {
		cat.Sources = append(cat.Sources, catalog.SourceSpec{CSV: path, Caps: capsFlag, Link: link})
	}
	for _, addr := range remotes {
		cat.Sources = append(cat.Sources, catalog.SourceSpec{Remote: addr, Link: link})
	}
	return cat.Build(ctx)
}
