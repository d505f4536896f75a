// Package lockorder enforces a consistent whole-program mutex acquisition
// order. Using the conc summaries (CFG + forward may-analysis, composed
// across packages through analyzer facts) it builds the lock-acquisition
// graph — an edge A → B wherever B is acquired while A may be held, keyed
// by struct-field mutexes like fabric.Logical.mu — and reports:
//
//   - any cycle in the order graph (two code paths that nest the same
//     mutexes in opposite orders can deadlock against each other), and
//   - any re-acquisition of a mutex that may already be held on the same
//     goroutine, directly or through a callee (sync.Mutex is not
//     reentrant: a self-deadlock, not a race).
//
// Each package reports the cycles its own edges complete, so the driver's
// dependency-ordered walk reports every cycle once.
package lockorder

import (
	"fmt"
	"strings"

	"fusionq/internal/lint/analysis"
	"fusionq/internal/lint/conc"
)

// Analyzer detects lock-order cycles and double-acquires.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutexes must be acquired in one global order: no order-graph cycles, no re-acquiring a held mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info := conc.Analyze(pass)
	for _, d := range info.Doubles {
		if d.Via != "" {
			pass.Reportf(d.Pos, "call to %s re-acquires %s, which may already be held (locked at %s; callee locks it at %s)",
				d.Via, d.Key, d.HeldSince, d.CalleePos)
		} else {
			pass.Reportf(d.Pos, "%s may already be held (locked at %s) when locked again; sync mutexes are not reentrant",
				d.Key, d.HeldSince)
		}
	}

	graph := buildGraph(info)
	reported := map[string]bool{}
	for _, es := range info.Edges {
		if es.From == es.To {
			continue
		}
		back := findPath(graph, es.To, es.From)
		if back == nil {
			continue
		}
		cycle := append([]conc.Edge{es.Edge}, back...)
		sig := signature(cycle)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		pass.Reportf(es.Pos, "lock-order cycle %s: %s", chain(cycle), details(cycle))
	}

	blob, err := info.Export()
	if err != nil {
		return err
	}
	pass.ExportFacts(blob)
	return nil
}

// buildGraph collects every known edge — imported facts and this
// package's — with deterministic neighbor order.
func buildGraph(info *conc.Info) map[string][]conc.Edge {
	graph := map[string][]conc.Edge{}
	names := make([]string, 0, len(info.All))
	for name := range info.All {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		for _, e := range info.All[name].Edges {
			graph[e.From] = append(graph[e.From], e)
		}
	}
	return graph
}

// findPath returns an edge path from → to, or nil.
func findPath(graph map[string][]conc.Edge, from, to string) []conc.Edge {
	prev := map[string]conc.Edge{}
	visited := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			var path []conc.Edge
			for n != from {
				e := prev[n]
				path = append([]conc.Edge{e}, path...)
				n = e.From
			}
			return path
		}
		for _, e := range graph[n] {
			if !visited[e.To] {
				visited[e.To] = true
				prev[e.To] = e
				queue = append(queue, e.To)
			}
		}
	}
	return nil
}

// signature canonicalizes a cycle by its node set, so the same cycle found
// from different starting edges reports once.
func signature(cycle []conc.Edge) string {
	nodes := make([]string, len(cycle))
	for i, e := range cycle {
		nodes[i] = e.From
	}
	sortStrings(nodes)
	return strings.Join(nodes, "|")
}

func chain(cycle []conc.Edge) string {
	parts := []string{cycle[0].From}
	for _, e := range cycle {
		parts = append(parts, e.To)
	}
	return strings.Join(parts, " → ")
}

func details(cycle []conc.Edge) string {
	parts := make([]string, len(cycle))
	for i, e := range cycle {
		parts[i] = fmt.Sprintf("%s acquired at %s while %s held (since %s)", e.To, e.ToPos, e.From, e.FromPos)
	}
	return strings.Join(parts, "; ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
