package sqlparse

import (
	"testing"

	"fusionq/internal/workload"
)

// FuzzParseFusion checks the SQL front end never panics and that accepted
// fusion queries stay internally consistent (conditions per FROM variable,
// merge attribute preserved).
func FuzzParseFusion(f *testing.F) {
	seeds := []string{
		"SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
		"SELECT u1.L FROM U u1 WHERE u1.V = 'dui'",
		"SELECT L FROM U u1",
		"SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L AND u2.L = u3.L",
		"SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND (u1.V = 'a' OR u1.V = 'b')",
		"SELECT u1.V FROM U u1",
		"SELECT",
		"garbage ( here",
		"SELECT u1.L FROM U u1 WHERE u1.D IN (1, 2) AND u1.L LIKE 'J%'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := workload.DMVSchema()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := parse(sql)
		if err != nil {
			return
		}
		fq, err := q.fusion(schema)
		if err != nil {
			return
		}
		if fq.Merge != schema.Merge() {
			t.Fatalf("merge attribute corrupted: %q", fq.Merge)
		}
		if len(fq.Conds) != len(q.From) {
			t.Fatalf("%d conditions for %d FROM variables", len(fq.Conds), len(q.From))
		}
		for i, c := range fq.Conds {
			if err := c.Check(schema); err != nil {
				t.Fatalf("accepted condition %d does not type check: %v", i, err)
			}
		}
	})
}
