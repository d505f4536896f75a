package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/exec"
	"fusionq/internal/sqlparse"
)

// repl reads fusion-query SQL statements (one per line) from in and
// executes them against the mediator, printing answers to out. Lines
// starting with a backslash are commands:
//
//	\algo NAME       switch the optimization algorithm
//	\trace on|off    toggle printing each answer's per-step execution trace
//	\explain SQL     print the plan for SQL without executing
//	\help            list commands
//	\quit            exit
//
// trace is whether the session starts out printing the traces.
func repl(ctx context.Context, m *core.Mediator, in io.Reader, out io.Writer, opts core.Options, trace bool, timeout time.Duration) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintf(out, "fusionq> connected to %d sources; \\help for commands\n", len(m.Sources()))
	prompt := func() { fmt.Fprint(out, "fusionq> ") }
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\help`:
			fmt.Fprintln(out, `commands: \algo NAME, \trace on|off, \explain SQL, \quit`)
		case strings.HasPrefix(line, `\algo `):
			opts.Algorithm = core.Algorithm(strings.TrimSpace(strings.TrimPrefix(line, `\algo `)))
			fmt.Fprintf(out, "algorithm: %s\n", opts.Algorithm)
		case strings.HasPrefix(line, `\trace`):
			trace = strings.Contains(line, "on")
			fmt.Fprintf(out, "trace: %v\n", trace)
		case strings.HasPrefix(line, `\explain `):
			sql := strings.TrimPrefix(line, `\explain `)
			if err := explainPlan(ctx, m, out, sql, opts); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			}
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(out, "unknown command %q (\\help lists commands)\n", line)
		default:
			qctx, cancel := withTimeout(ctx, timeout)
			err := replQuery(qctx, m, out, line, opts, trace)
			cancel()
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			}
		}
		prompt()
	}
	return scanner.Err()
}

// explainPlan prints the plan for sql without executing it: -explain and the
// REPL's \explain.
func explainPlan(ctx context.Context, m *core.Mediator, out io.Writer, sql string, opts core.Options) error {
	fq, err := sqlparse.ParseFusion(sql, m.Schema())
	if err != nil {
		return err
	}
	res, err := m.Plan(ctx, fq.Conds, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "plan (%s, estimated cost %.4f s):\n%s", res.Plan.Class, res.Cost, res.Plan)
	return nil
}

func replQuery(ctx context.Context, m *core.Mediator, out io.Writer, sql string, opts core.Options, trace bool) error {
	ans, err := m.Query(ctx, sql, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "answer (%d items): %s\n", ans.Items.Len(), ans.Items)
	fmt.Fprintf(out, "plan: %s, estimated %.4f s, %d queries, total work %v\n",
		ans.Plan.Class, ans.EstimatedCost, ans.Exec.SourceQueries, ans.Exec.TotalWork)
	if trace {
		fmt.Fprint(out, exec.RenderTrace(ans.Exec.Trace))
	}
	return nil
}
