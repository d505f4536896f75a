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
//	                greedy-adaptive-sja | greedy-sja+ | rt-sja (README "Algorithms")
//	-caps tier      capability tier for CSV sources: native | bindings | none
//	-conns n        connection capacity of each -csv/-remote source's link: a
//	                round's source queries always overlap across sources, and
//	                this is how many may be in flight at one source (0: one;
//	                a catalog states maxConns per link)
//	-cache          answer repeated source queries from the mediator cache
//	-explain        print the plan without executing it
//	-fetch          run the second phase and print the full records
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
	"path/filepath"
	"strings"

	"fusionq/internal/catalog"
	"fusionq/internal/core"
	"fusionq/internal/csvio"
	"fusionq/internal/exec"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/sqlparse"
	"fusionq/internal/wire"
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
		cache     = flag.Bool("cache", false, "answer repeated source queries from the mediator's cache")
		catalogF  = flag.String("catalog", "", "JSON catalog of sources (replaces -csv/-remote)")
		explain   = flag.Bool("explain", false, "print the plan, do not execute")
		timeout   = flag.Duration("timeout", 0, "per-query wall-clock budget (0: none)")
		fetch     = flag.Bool("fetch", false, "run the second phase and print full records")
		trace     = flag.Bool("trace", false, "print a per-step execution trace")
		stream    = flag.Bool("stream", false, "execute as a pull-based streaming pipeline (bounded batches, early first answer)")
		batch     = flag.Int("batch", 0, "streaming batch size for -stream (0: default)")
		traceJSON = flag.String("trace-json", "", `write the query's span trace as JSON to this file ("-" for stdout)`)
		spans     = flag.Bool("spans", false, "print the query's span tree with per-exchange wait/server/wire split")
		admin     = flag.String("admin", "", "serve admin endpoints (/metrics, /debug/*) on this address (e.g. 127.0.0.1:9100)")
		shell     = flag.Bool("i", false, "interactive shell: read SQL statements from stdin")
	)
	flag.Var(&csvs, "csv", "local CSV source file (repeatable)")
	flag.Var(&remotes, "remote", "remote source address (repeatable)")
	flag.Parse()

	if *shell {
		m, closer, err := assemble(csvs, remotes, *catalogF, *merge, *capsFlag, *conns)
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
		opts := core.Options{Algorithm: core.Algorithm(*algo), Cache: *cache, Trace: *trace, Timeout: *timeout, Streaming: *stream, BatchSize: *batch}
		if err := repl(m, os.Stdin, os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "fusionq: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opts := core.Options{Algorithm: core.Algorithm(*algo), Cache: *cache, Trace: *trace, Timeout: *timeout, Streaming: *stream, BatchSize: *batch}
	if err := run(*sql, csvs, remotes, *catalogF, *merge, *capsFlag, *conns, opts, *explain, *fetch, *traceJSON, *spans, *admin); err != nil {
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

func parseCaps(tier string) (source.Capabilities, error) {
	switch tier {
	case "native":
		return source.Capabilities{NativeSemijoin: true, PassedBindings: true}, nil
	case "bindings":
		return source.Capabilities{PassedBindings: true}, nil
	case "none":
		return source.Capabilities{}, nil
	default:
		return source.Capabilities{}, fmt.Errorf("unknown capability tier %q", tier)
	}
}

func run(sql string, csvs, remotes []string, catalogPath, merge, capsFlag string, conns int, opts core.Options, explain, fetch bool, traceJSON string, spans bool, adminAddr string) error {
	if sql == "" {
		return fmt.Errorf("-sql is required")
	}
	m, closer, err := assemble(csvs, remotes, catalogPath, merge, capsFlag, conns)
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
	schema := m.Schema()

	if explain {
		fq, err := sqlparse.ParseFusion(sql, schema)
		if err != nil {
			return err
		}
		res, err := m.Plan(context.Background(), fq.Conds, core.Options{Algorithm: opts.Algorithm})
		if err != nil {
			return err
		}
		fmt.Printf("plan (%s, estimated cost %.4f s):\n%s", res.Plan.Class, res.Cost, res.Plan)
		return nil
	}

	ans, err := m.Query(sql, opts)
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
	if opts.Cache {
		fmt.Printf("cache: %d hits, %d misses\n", ans.Exec.CacheHits, ans.Exec.CacheMisses)
	}
	if opts.Trace {
		fmt.Printf("\ntrace:\n%s", exec.RenderTrace(ans.Exec.Trace))
	}
	if spans && ans.Trace != nil {
		fmt.Printf("\nspans:\n%s", obs.RenderTrace(ans.Trace.Export()))
	}

	if fetch && !ans.Items.IsEmpty() {
		fetchCtx := context.Background()
		if opts.Timeout > 0 {
			var cancel context.CancelFunc
			fetchCtx, cancel = context.WithTimeout(fetchCtx, opts.Timeout)
			defer cancel()
		}
		full, err := m.FetchContext(fetchCtx, ans.Items)
		if err != nil {
			return err
		}
		fmt.Printf("\nphase two: %d full records\n%s", full.Len(), full)
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

// assemble builds the mediator either from a catalog file or from the
// -csv/-remote flags, whose sources sit behind default links of conns
// connections each.
func assemble(csvs, remotes []string, catalogPath, merge, capsFlag string, conns int) (*core.Mediator, func(), error) {
	if catalogPath != "" {
		cat, err := catalog.Load(catalogPath)
		if err != nil {
			return nil, nil, err
		}
		return cat.Build()
	}
	if len(csvs)+len(remotes) == 0 {
		return nil, nil, fmt.Errorf("register at least one -csv or -remote source, or use -catalog")
	}
	caps, err := parseCaps(capsFlag)
	if err != nil {
		return nil, nil, err
	}

	var (
		sources []source.Source
		schema  *relation.Schema
		closers []func()
	)
	closeAll := func() {
		for _, f := range closers {
			f()
		}
	}
	for _, path := range csvs {
		rel, err := csvio.Load(path, merge)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		if schema == nil {
			schema = rel.Schema()
		} else if !schema.Compatible(rel.Schema()) {
			closeAll()
			return nil, nil, fmt.Errorf("%s: schema %s incompatible with %s", path, rel.Schema(), schema)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		sources = append(sources, source.NewWrapper(name, source.NewRowBackend(rel), caps))
	}
	for _, addr := range remotes {
		cli, err := wire.Dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, func() { _ = cli.Close() })
		if schema == nil {
			schema = cli.Schema()
		} else if !schema.Compatible(cli.Schema()) {
			closeAll()
			return nil, nil, fmt.Errorf("%s: remote schema %s incompatible with %s", addr, cli.Schema(), schema)
		}
		sources = append(sources, cli)
	}

	m := core.New(schema)
	m.SetNetwork(netsim.NewNetwork(1))
	link := netsim.DefaultLink()
	link.MaxConns = conns
	for _, src := range sources {
		if err := m.AddSourceLink(src, link); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return m, closeAll, nil
}
