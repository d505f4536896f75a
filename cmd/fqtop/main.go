// Command fqtop is a live terminal view over a fusion mediator's admin
// endpoints — the observability analogue of top(1). It polls /debug/runtime
// (the process's heap and collector), /debug/queries (in-flight queries),
// /debug/endpoints (per-endpoint replica-fabric scorecards) and
// /debug/traces (the flight recorder's retained tail) and renders one
// consolidated screen per interval.
//
// Usage:
//
//	fqtop -addr 127.0.0.1:9100
//
// Flags:
//
//	-addr addr    admin listener to poll (required), as served by
//	              fusionq -admin or any obs.ServeAdminConfig listener
//	-interval d   refresh interval (default 2s)
//	-once         render a single frame and exit (no screen clearing);
//	              useful in scripts and smoke tests
//	-tail n       slow/interesting records shown in the tail (default 10)
//
// A runtime line, then three panes:
//
//	runtime   live heap and heap goal, GC cycles, the collector's share of
//	          the CPU, GC pause p50/p99 and goroutines (obs.RuntimeHealth)
//	LIVE      every in-flight query: elapsed time, current phase/step, and
//	          per-source exchange and byte counts from the live registry
//	ENDPOINTS one row per physical replica endpoint: breaker state, EWMA
//	          latency, in-flight exchanges, consecutive failures, hedges
//	          launched/won and failovers — the fabric's scorecard
//	TAIL      the newest retained interesting records (error, slow, hedged,
//	          failed-over, repaired) from the flight recorder, newest first
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"fusionq/internal/fabric"
	"fusionq/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "", "admin listener address to poll (required)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame and exit")
		tail     = flag.Int("tail", 10, "interesting records shown in the tail pane")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "fqtop: -addr is required")
		os.Exit(2)
	}
	f := newFeed(*addr)
	if *once {
		if err := renderOnce(context.Background(), os.Stdout, f, *tail); err != nil {
			fmt.Fprintf(os.Stderr, "fqtop: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for {
		var buf strings.Builder
		err := renderOnce(context.Background(), &buf, f, *tail)
		// Clear the screen between frames so the view updates in place.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("fqtop: %v (retrying in %v)\n", err, *interval)
		} else {
			fmt.Print(buf.String())
		}
		time.Sleep(*interval)
	}
}

// feed fetches and decodes one admin listener's JSON endpoints.
type feed struct {
	base string
	cli  *http.Client
}

func newFeed(addr string) *feed {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &feed{base: strings.TrimSuffix(addr, "/"), cli: &http.Client{Timeout: 5 * time.Second}}
}

func (f *feed) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return fmt.Errorf("fqtop: %s: %w", path, err)
	}
	resp, err := f.cli.Do(req)
	if err != nil {
		return fmt.Errorf("fqtop: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fqtop: %s: unexpected status %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("fqtop: %s: decode: %w", path, err)
	}
	return nil
}

// renderOnce polls the four debug endpoints and writes one frame to w.
func renderOnce(ctx context.Context, w io.Writer, f *feed, tailN int) error {
	var rt obs.RuntimeHealth
	var live struct {
		Queries []obs.LiveQueryInfo `json:"queries"`
	}
	var eps struct {
		Endpoints []fabric.Scorecard `json:"endpoints"`
	}
	var traces struct {
		Traces []obs.RecordSummary `json:"traces"`
	}
	if err := f.get(ctx, "/debug/runtime", &rt); err != nil {
		return err
	}
	if err := f.get(ctx, "/debug/queries", &live); err != nil {
		return err
	}
	if err := f.get(ctx, "/debug/endpoints", &eps); err != nil {
		return err
	}
	if err := f.get(ctx, "/debug/traces", &traces); err != nil {
		return err
	}
	fmt.Fprintf(w, "fqtop %s\nruntime: %s\n\n", f.base, rt)
	renderLive(w, live.Queries)
	renderEndpoints(w, eps.Endpoints)
	renderTail(w, traces.Traces, tailN)
	return nil
}

func renderLive(w io.Writer, queries []obs.LiveQueryInfo) {
	fmt.Fprintf(w, "LIVE QUERIES (%d)\n", len(queries))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  QID\tELAPSED\tPHASE\tSTEP\tBYTES\tSOURCES")
	for _, q := range queries {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%d\t%s\n",
			q.QueryID, fmtUS(q.ElapsedUS), q.Phase, q.Step, q.Bytes, fmtSources(q.Sources))
	}
	_ = tw.Flush()
	fmt.Fprintln(w)
}

func fmtSources(src map[string]obs.LiveSourceInfo) string {
	if len(src) == 0 {
		return "-"
	}
	names := make([]string, 0, len(src))
	for name := range src {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		s := src[name]
		parts = append(parts, fmt.Sprintf("%s:%dx/%dB", name, s.Exchanges, s.Bytes))
	}
	return strings.Join(parts, " ")
}

func renderEndpoints(w io.Writer, cards []fabric.Scorecard) {
	fmt.Fprintf(w, "ENDPOINTS (%d)\n", len(cards))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  LOGICAL\tENDPOINT\tBREAKER\tEWMA\tINFLIGHT\tFAILS\tHEDGES\tWINS\tFAILOVERS")
	for _, c := range cards {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			c.Logical, c.Endpoint, c.Breaker,
			(time.Duration(c.EWMASeconds * float64(time.Second))).Round(time.Microsecond),
			c.Inflight, c.ConsecFails, c.Hedges, c.HedgeWins, c.Failovers)
	}
	_ = tw.Flush()
	fmt.Fprintln(w)
}

func renderTail(w io.Writer, traces []obs.RecordSummary, n int) {
	// Newest first; interesting records (error/slow/hedged/failed-over/
	// repaired) ahead of sampled ones.
	interesting := make([]obs.RecordSummary, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		if !traces[i].Sampled {
			interesting = append(interesting, traces[i])
		}
	}
	if n > 0 && len(interesting) > n {
		interesting = interesting[:n]
	}
	fmt.Fprintf(w, "SLOW / INTERESTING TAIL (%d of %d retained)\n", len(interesting), len(traces))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  QID\tDUR\tSTATUS\tITEMS\tBYTES\tSPANS\tFLAGS")
	for _, t := range interesting {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%d\t%d\t%s\n",
			t.QueryID, fmtUS(t.DurationUS), t.Status, t.Items, t.Bytes, t.Spans, flags(t))
	}
	_ = tw.Flush()
}

// flags compresses a record's retention-relevant bits into a short tag list.
func flags(t obs.RecordSummary) string {
	var out []string
	if t.Slow {
		out = append(out, "slow")
	}
	if t.Hedges > 0 {
		out = append(out, fmt.Sprintf("hedge×%d", t.Hedges))
	}
	if t.Failovers > 0 {
		out = append(out, fmt.Sprintf("failover×%d", t.Failovers))
	}
	if t.Repaired {
		out = append(out, "repaired")
	}
	if len(out) == 0 {
		return "-"
	}
	return strings.Join(out, ",")
}

func fmtUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(10 * time.Microsecond).String()
}
