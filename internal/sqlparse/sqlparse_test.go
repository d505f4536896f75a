package sqlparse

import (
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/workload"
)

// paperSQL is the Section 1 query in the paper's SQL form.
const paperSQL = `
SELECT u1.L
FROM U u1, U u2
WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`

func TestParsePaperQuery(t *testing.T) {
	q, err := parse(paperSQL)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if q.SelectVar != "u1" || q.SelectAttr != "L" {
		t.Fatalf("SELECT = %s.%s", q.SelectVar, q.SelectAttr)
	}
	if len(q.From) != 2 || q.From[0].Relation != "U" || q.From[1].Alias != "u2" {
		t.Fatalf("FROM = %+v", q.From)
	}
	if len(q.MergeLinks) != 1 {
		t.Fatalf("MergeLinks = %+v", q.MergeLinks)
	}
	l := q.MergeLinks[0]
	if l.LVar != "u1" || l.LAttr != "L" || l.RVar != "u2" || l.RAttr != "L" {
		t.Fatalf("link = %+v", l)
	}
	if len(q.VarConds) != 2 {
		t.Fatalf("VarConds = %v", q.VarConds)
	}
	if got := q.VarConds["u1"].String(); got != "V = 'dui'" {
		t.Fatalf("cond(u1) = %q", got)
	}
}

func TestFusionPaperQuery(t *testing.T) {
	schema := workload.DMVSchema()
	fq, err := ParseFusion(paperSQL, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if fq.Merge != "L" || len(fq.Conds) != 2 {
		t.Fatalf("fusion = %+v", fq)
	}
	if fq.Conds[0].String() != "V = 'dui'" || fq.Conds[1].String() != "V = 'sp'" {
		t.Fatalf("conds = %v, %v", fq.Conds[0], fq.Conds[1])
	}
}

func TestFusionThreeVariablesChain(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1, U u2, U u3
	        WHERE u1.L = u2.L AND u2.L = u3.L
	          AND u1.V = 'dui' AND u2.V = 'sp' AND u3.D >= 1994`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if len(fq.Conds) != 3 {
		t.Fatalf("conds = %d, want 3", len(fq.Conds))
	}
}

func TestFusionStarTopologyLinks(t *testing.T) {
	schema := workload.DMVSchema()
	// u1 linked to both u2 and u3 directly.
	sql := `SELECT u1.L FROM U u1, U u2, U u3
	        WHERE u1.L = u2.L AND u1.L = u3.L
	          AND u1.V = 'dui' AND u2.V = 'sp' AND u3.V = 'sp'`
	if _, err := ParseFusion(sql, schema); err != nil {
		t.Fatalf("star topology should be accepted: %v", err)
	}
}

func TestFusionMissingConditionBecomesTrue(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatal(err)
	}
	if fq.Conds[1].String() != "TRUE" {
		t.Fatalf("missing condition = %q, want TRUE", fq.Conds[1])
	}
}

func TestFusionComplexConditions(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1, U u2
	        WHERE u1.L = u2.L
	          AND (u1.V = 'dui' OR u1.V = 'reckless')
	          AND u2.D >= 1990 AND u2.D < 1997`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	// The two u2 conjuncts are ANDed into one condition.
	if !strings.Contains(fq.Conds[1].String(), "AND") {
		t.Fatalf("cond(u2) = %q, want conjunction", fq.Conds[1])
	}
	if !strings.Contains(fq.Conds[0].String(), "OR") {
		t.Fatalf("cond(u1) = %q, want disjunction", fq.Conds[0])
	}
}

func TestFusionSingleVariable(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1 WHERE u1.V = 'dui'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("single-variable fusion query: %v", err)
	}
	if len(fq.Conds) != 1 {
		t.Fatalf("conds = %d", len(fq.Conds))
	}
}

func TestNotFusionRejections(t *testing.T) {
	schema := workload.DMVSchema()
	cases := map[string]string{
		"mixed relations":       `SELECT u1.L FROM U u1, V u2 WHERE u1.L = u2.L AND u1.V = 'dui'`,
		"join not on merge":     `SELECT u1.L FROM U u1, U u2 WHERE u1.D = u2.D AND u1.V = 'dui'`,
		"projection not merge":  `SELECT u1.V FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui'`,
		"disconnected variable": `SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L AND u1.V = 'dui' AND u3.V = 'sp'`,
		"two-variable cond":     `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND (u1.V = 'dui' OR u2.V = 'sp')`,
		"unknown select var":    `SELECT u9.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui'`,
		"duplicate alias":       `SELECT u1.L FROM U u1, U u1 WHERE u1.V = 'dui'`,
		"bad attribute":         `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.Nope = 'x'`,
		"type mismatch":         `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.D = 'notanint'`,
		"unknown link var":      `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u9.L AND u1.V = 'dui'`,
	}
	for name, sql := range cases {
		if _, err := ParseFusion(sql, schema); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT u1.L",
		"SELECT u1.L FROM",
		"SELECT u1.L FROM U u1 WHERE",
		"SELECT u1.L FROM U u1 WHERE u1.V =",
		"SELECT u1.L FROM U u1 WHERE V = 'dui'", // unqualified attribute
		"SELECT u1.L FROM U u1 WHERE (u1.V = 'dui'",  // unbalanced paren
		"SELECT u1.L FROM U u1 WHERE u1.V = 'dui')",  // unbalanced paren
		"SELECT u1.L FROM U u1 WHERE u1.V = 'dui' X", // trailing garbage
	}
	for _, sql := range bad {
		if _, err := parse(sql); err == nil {
			t.Errorf("parse(%q) should fail", sql)
		}
	}
}

func TestParseUnqualifiedSelect(t *testing.T) {
	schema := workload.DMVSchema()
	// Unqualified projection is accepted at parse time and resolves to the
	// merge attribute.
	sql := `SELECT L FROM U u1 WHERE u1.V = 'dui'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if fq.Merge != "L" {
		t.Fatalf("merge = %s", fq.Merge)
	}
}

func TestFusionConditionOrderFollowsFrom(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT a.L FROM U a, U b WHERE a.L = b.L AND b.V = 'sp' AND a.V = 'dui'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatal(err)
	}
	if fq.Conds[0].String() != "V = 'dui'" || fq.Conds[1].String() != "V = 'sp'" {
		t.Fatalf("conditions not in FROM order: %v / %v", fq.Conds[0], fq.Conds[1])
	}
}

func TestFusionINAndLike(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1, U u2
	        WHERE u1.L = u2.L AND u1.V IN ('dui', 'reckless') AND u2.L LIKE 'T%'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if !strings.Contains(fq.Conds[0].String(), "IN") || !strings.Contains(fq.Conds[1].String(), "LIKE") {
		t.Fatalf("conds = %v / %v", fq.Conds[0], fq.Conds[1])
	}
}

// TestFusionQuotedLiterals: a string literal that holds a single quote, and
// a float literal too small for a short decimal, reach the condition intact.
func TestFusionQuotedLiterals(t *testing.T) {
	schema := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "V", Kind: relation.KindString},
		relation.Column{Name: "F", Kind: relation.KindFloat},
	)
	sql := `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = "O'Brien" AND u2.F = 0.000001`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if got, want := fq.Conds[0].String(), `V = "O'Brien"`; got != want {
		t.Fatalf("first condition %s, want %s", got, want)
	}
	if got, want := fq.Conds[1].String(), "F = 0.000001"; got != want {
		t.Fatalf("second condition %s, want %s", got, want)
	}
}

func TestFusionAgainstCustomSchema(t *testing.T) {
	schema := relation.MustSchema("ID",
		relation.Column{Name: "ID", Kind: relation.KindString},
		relation.Column{Name: "Score", Kind: relation.KindFloat},
	)
	sql := `SELECT d.ID FROM Docs d, Docs e WHERE d.ID = e.ID AND d.Score >= 0.5 AND e.Score < 0.9`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if fq.Merge != "ID" || len(fq.Conds) != 2 {
		t.Fatalf("fusion = %+v", fq)
	}
}

func TestFusionBetween(t *testing.T) {
	schema := workload.DMVSchema()
	sql := `SELECT u1.L FROM U u1, U u2
	        WHERE u1.L = u2.L AND u1.D BETWEEN 1990 AND 1995 AND u2.V = 'sp'`
	fq, err := ParseFusion(sql, schema)
	if err != nil {
		t.Fatalf("ParseFusion: %v", err)
	}
	if len(fq.Conds) != 2 {
		t.Fatalf("conds = %d, want 2", len(fq.Conds))
	}
	if !strings.Contains(fq.Conds[0].String(), ">= 1990") || !strings.Contains(fq.Conds[0].String(), "<= 1995") {
		t.Fatalf("BETWEEN not desugared: %v", fq.Conds[0])
	}
	if fq.Conds[1].String() != "V = 'sp'" {
		t.Fatalf("second conjunct corrupted: %v", fq.Conds[1])
	}
}

// TestConditionGrammar: the WHERE clause is read with internal/cond's
// grammar and precedence, and its errors give offsets in the SQL text.
func TestConditionGrammar(t *testing.T) {
	dmv := workload.DMVSchema()
	sizes := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "Größe", Kind: relation.KindInt},
	)
	cases := []struct {
		name, sql string
		schema    *relation.Schema
		want      string // the one condition's text; "" when rejected
		err       string // a part of the rejection's text
	}{
		{"AND binds tighter than OR", `SELECT u1.L FROM U u1 WHERE u1.V = 'dui' OR u1.V = 'sp' AND u1.D > 1993`, dmv,
			cond.MustParse("V = 'dui' OR V = 'sp' AND D > 1993").String(), ""},
		{"merge link under OR", `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'a' OR u1.V = 'b'`, dmv,
			"", "not a fusion query"},
		{"error offset in the SQL text", `SELECT u1.L FROM U u1 WHERE u1.V IN ('a' 'b')`, dmv,
			"", "offset 41"},
		{"UTF-8 attribute", `SELECT u1.L FROM U u1 WHERE u1.Größe < 5`, sizes,
			"Größe < 5", ""},
	}
	for _, c := range cases {
		fq, err := ParseFusion(c.sql, c.schema)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s: accepted as %v, want an error", c.name, fq.Conds)
		case c.want == "" && !strings.Contains(err.Error(), c.err):
			t.Errorf("%s: error %q, want one holding %q", c.name, err, c.err)
		case c.want != "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (len(fq.Conds) != 1 || fq.Conds[0].String() != c.want):
			t.Errorf("%s: conditions %v, want [%s]", c.name, fq.Conds, c.want)
		}
	}
}
