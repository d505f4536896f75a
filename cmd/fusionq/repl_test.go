package main

import (
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
		`\cache on`,    // nor this: the mediator keeps no source answers
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
		`unknown command "\\cache on"`,
		"plan (semijoin-adaptive",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("repl output missing %q:\n%s", want, text)
		}
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
