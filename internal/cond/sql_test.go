package cond_test

import (
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/sqlparse"
	"fusionq/internal/workload"
)

// FuzzSQLCondition ties the condition parser to the fusion SQL front end:
// a condition that parses and type-checks over the DMV schema reads the
// same, String for String, as the WHERE clause of a one-variable fusion
// query with every attribute qualified, and one that fails Check makes
// that query fail too.
func FuzzSQLCondition(f *testing.F) {
	for _, s := range cond.ParseSeeds(f) {
		f.Add(s)
	}
	f.Add("V = 'dui' OR V = 'sp' AND D > 1993")
	schema := workload.DMVSchema()
	f.Fuzz(func(t *testing.T, text string) {
		c, err := cond.Parse(text)
		if err != nil {
			return
		}
		qualified, ok := cond.Qualify(text)
		if !ok {
			t.Fatalf("%q parses but does not lex", text)
		}
		sql := "SELECT u1.L FROM U u1 WHERE " + qualified
		fq, err := sqlparse.ParseFusion(sql, schema)
		if c.Check(schema) != nil {
			if err == nil {
				t.Fatalf("%q fails Check, but %q is accepted as %v", text, sql, fq.Conds)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q parses as %s, but %q fails: %v", text, c, sql, err)
		}
		if len(fq.Conds) != 1 || fq.Conds[0].String() != c.String() {
			t.Fatalf("%q parses as %s, but %q as %v", text, c, sql, fq.Conds)
		}
	})
}
