package main

import (
	"fmt"
	"strings"
	"testing"

	"fusionq/internal/core"
)

// replMediator assembles a mediator from the DMV CSVs for REPL tests.
func replMediator(t *testing.T) *core.Mediator {
	t.Helper()
	csvs := writeCSVs(t)
	m, closer, err := assemble(t.Context(), csvs, nil, "", "", "native", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closer)
	return m
}

func TestReplQueryAndCommands(t *testing.T) {
	m := replMediator(t)
	in := strings.NewReader(strings.Join([]string{
		`\help`,
		`\algo sja`,
		`\trace on`,
		dmvSQL,
		`\trace off`,
		`\parallel on`, // no such command any more: rounds always overlap
		dmvSQL,
		`\explain ` + dmvSQL,
		`\quit`,
	}, "\n"))
	var out strings.Builder
	if err := repl(t.Context(), m, in, &out, core.Options{}, false, 0); err != nil {
		t.Fatalf("repl: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"algorithm: sja",
		"trace: true",
		"answer (2 items): {J55, T21}",
		"sq(c1,", // trace rendering
		`unknown command "\\parallel on"`,
		"plan (semijoin-adaptive",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("repl output missing %q:\n%s", want, text)
		}
	}
}

// TestReplCacheCountersResetPerQuery runs the same query twice with the
// answer cache on and checks the reported hit/miss counters are per-query:
// the first run misses, the second is answered from the cache — and the
// second report must not fold in the first query's misses (the cache itself
// persists across the session; its cumulative Stats() would).
func TestReplCacheCountersResetPerQuery(t *testing.T) {
	m := replMediator(t)
	in := strings.NewReader(strings.Join([]string{
		// sja issues sq/sjq source queries (the default-link plan loads whole
		// relations, which the answer cache deliberately does not cover).
		`\algo sja`,
		`\cache on`,
		dmvSQL,
		dmvSQL,
		`\quit`,
	}, "\n"))
	var out strings.Builder
	if err := repl(t.Context(), m, in, &out, core.Options{}, false, 0); err != nil {
		t.Fatalf("repl: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "cache: true") {
		t.Fatalf("\\cache on not acknowledged:\n%s", text)
	}
	var reports []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimPrefix(line, "fusionq> "), "cache: ") && strings.Contains(line, "hits") {
			reports = append(reports, strings.TrimPrefix(line, "fusionq> "))
		}
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 per-query cache reports, got %d:\n%s", len(reports), text)
	}
	var h1, m1, h2, m2 int
	if _, err := fmt.Sscanf(reports[0], "cache: %d hits, %d misses", &h1, &m1); err != nil {
		t.Fatalf("parsing %q: %v", reports[0], err)
	}
	if _, err := fmt.Sscanf(reports[1], "cache: %d hits, %d misses", &h2, &m2); err != nil {
		t.Fatalf("parsing %q: %v", reports[1], err)
	}
	if h1 != 0 || m1 == 0 {
		t.Errorf("first query should be all misses, got %s", reports[0])
	}
	if h2 == 0 {
		t.Errorf("second query should hit the cache, got %s", reports[1])
	}
	if m2 >= m1 {
		t.Errorf("second query's misses (%d) should drop below the first's (%d): counters must not accumulate", m2, m1)
	}
}

func TestReplErrorsAreRecoverable(t *testing.T) {
	m := replMediator(t)
	in := strings.NewReader(strings.Join([]string{
		`SELECT broken (`,
		`\unknown`,
		dmvSQL,
	}, "\n"))
	var out strings.Builder
	if err := repl(t.Context(), m, in, &out, core.Options{}, false, 0); err != nil {
		t.Fatalf("repl: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "error:") {
		t.Fatalf("bad SQL should print an error:\n%s", text)
	}
	if !strings.Contains(text, "unknown command") {
		t.Fatalf("unknown command should be reported:\n%s", text)
	}
	if !strings.Contains(text, "answer (2 items)") {
		t.Fatalf("session should recover and answer:\n%s", text)
	}
}

func TestReplEOFExitsCleanly(t *testing.T) {
	m := replMediator(t)
	var out strings.Builder
	if err := repl(t.Context(), m, strings.NewReader(""), &out, core.Options{}, false, 0); err != nil {
		t.Fatalf("repl on empty input: %v", err)
	}
}
