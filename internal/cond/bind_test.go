package cond

import (
	"testing"

	"fusionq/internal/racetest"
	"fusionq/internal/relation"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// viewOf builds the ordered view of the given tuples of schema.
func viewOf(t testing.TB, schema *relation.Schema, tuples ...relation.Tuple) *relation.Ordered {
	t.Helper()
	rel := relation.NewRelation(schema)
	for _, row := range tuples {
		if err := rel.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return rel.Ordered()
}

// matchAll runs the bound condition over the whole view.
func matchAll(p Pred, view *relation.Ordered) []bool {
	out := make([]bool, len(view.Rows))
	p.Match(view, 0, out)
	return out
}

// TestBindMatchesCheckAndEval holds Bind to its contract for every node
// kind: it fails exactly when Check fails, with Check's error, and the bound
// kernel marks the rows on which Eval is true; Eval raises no error on a row
// of a relation, whose kinds Insert has checked. An operator outside the
// enumeration fails Check wherever it stands. Three of those rows are named
// for what Eval, the untouched reference, still does when handed them.
func TestBindMatchesCheckAndEval(t *testing.T) {
	str, num := relation.String, relation.Int
	cmp := func(attr string, op Op, lit relation.Value) Cond { return &Compare{Attr: attr, Op: op, Lit: lit} }
	dui, unknown := cmp("V", OpEq, str("dui")), cmp("Z", OpEq, num(1))
	badKind := cmp("D", OpEq, str("x"))
	cases := []struct {
		name    string
		c       Cond
		checkOK bool
	}{
		{"eq", dui, true},
		{"ne", cmp("V", OpNe, str("dui")), true},
		{"lt", cmp("D", OpLt, num(1994)), true},
		{"le", cmp("D", OpLe, num(1993)), true},
		{"gt", cmp("D", OpGt, num(1993)), true},
		{"ge int column, float literal", cmp("D", OpGe, relation.Float(1993.5)), true},
		{"like", cmp("V", OpLike, str("d_i%")), true},
		{"in", &In{Attr: "D", Vals: []relation.Value{num(1), num(1993)}}, true},
		{"in, empty list", &In{Attr: "V"}, true},
		{"and", &And{L: dui, R: cmp("D", OpGt, num(1990))}, true},
		{"or", &Or{L: dui, R: cmp("D", OpGt, num(2000))}, true},
		{"not", &Not{C: dui}, true},
		{"true", True{}, true},
		{"nested", &Or{L: &And{L: dui, R: &Not{C: cmp("D", OpLt, num(1993))}}, R: &In{Attr: "L", Vals: []relation.Value{str("T21")}}}, true},

		{"compare: unknown attribute", unknown, false},
		{"compare: kind mismatch", badKind, false},
		{"compare: bad operator", cmp("D", Op(99), num(1)), false},
		{"compare: bad operator below the range", cmp("D", Op(-1), num(1)), false},
		{"and, left false skips a failing right", &And{L: cmp("V", OpEq, str("none")), R: cmp("D", Op(99), num(1))}, false},
		{"or, left true skips a failing right", &Or{L: dui, R: cmp("D", Op(99), num(1))}, false},
		{"not of an Eval error", &Not{C: cmp("D", Op(99), num(1))}, false},
		{"compare: string column, int literal", cmp("V", OpGt, num(3)), false},
		{"like: int column", cmp("D", OpLike, str("x")), false},
		{"like: int pattern", cmp("V", OpLike, num(1)), false},
		{"in: unknown attribute", &In{Attr: "Z", Vals: []relation.Value{num(1)}}, false},
		{"in: mixed list", &In{Attr: "D", Vals: []relation.Value{num(1), str("x")}}, false},
		{"and: left", &And{L: unknown, R: dui}, false},
		{"and: right", &And{L: dui, R: badKind}, false},
		{"and: both, left reported", &And{L: unknown, R: badKind}, false},
		{"or: left", &Or{L: badKind, R: dui}, false},
		{"or: right", &Or{L: dui, R: unknown}, false},
		{"or: both, left reported", &Or{L: badKind, R: unknown}, false},
		{"not", &Not{C: unknown}, false},
	}
	view := viewOf(t, dmv, tup("J55", "dui", 1993), tup("T21", "sp", 1994), tup("T80", "dui", 1989), tup("J55", "sp", 2001))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkErr := tc.c.Check(dmv)
			if (checkErr == nil) != tc.checkOK {
				t.Fatalf("Check = %v, want ok=%v", checkErr, tc.checkOK)
			}
			pred, bindErr := tc.c.Bind(dmv)
			if errText(bindErr) != errText(checkErr) {
				t.Fatalf("Bind error %q, Check error %q", errText(bindErr), errText(checkErr))
			}
			if bindErr != nil {
				if pred != nil {
					t.Fatal("Bind returned a predicate with its error")
				}
				return
			}
			got := matchAll(pred, view)
			for i, row := range view.Rows {
				want, err := tc.c.Eval(dmv, row)
				if err != nil || got[i] != want {
					t.Errorf("%v: bound = %v, Eval = (%v, %v)", row, got[i], want, err)
				}
			}
		})
	}
}

// TestBindResolvesAgainstItsSchema binds one condition to two schemas that
// place the attribute in different columns.
func TestBindResolvesAgainstItsSchema(t *testing.T) {
	swapped := relation.MustSchema("L",
		relation.Column{Name: "D", Kind: relation.KindInt},
		relation.Column{Name: "L", Kind: relation.KindString},
	)
	c := MustParse("D >= 1993")
	p1, err := c.Bind(dmv)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Bind(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if got := matchAll(p1, viewOf(t, dmv, tup("J55", "dui", 1993))); !got[0] {
		t.Fatal("dmv: D = 1993 does not match D >= 1993")
	}
	if got := matchAll(p2, viewOf(t, swapped, relation.Tuple{relation.Int(1990), relation.String("J55")})); got[0] {
		t.Fatal("swapped: D = 1990 matches D >= 1993")
	}
}

// TestBindAllocs: a leaf keeps what it binds, so binding it again to the
// same schema returns the same kernel and allocates nothing, whichever kind
// of leaf it is. A connective keeps scratch, so it binds anew over its
// operands' kept leaves: one allocation, its own node.
func TestBindAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	for _, text := range []string{"I < 50", "F >= 0.5", "S = 'x'", "B = true", "S LIKE 'x%'", "I IN (1, 7)", "S IN ('x', 'y')"} {
		c := MustParse(text)
		first := mustBind(t, c)
		if allocs := testing.AllocsPerRun(100, func() {
			if p, err := c.Bind(every); err != nil || p != first {
				t.Fatalf("%s bound again: %v, %v; want the first kernel", text, p, err)
			}
		}); allocs != 0 {
			t.Errorf("%s bound again: %v allocations, want 0", text, allocs)
		}
	}
	and := MustParse("I < 50 AND S = 'x'")
	mustBind(t, and)
	if allocs := testing.AllocsPerRun(100, func() { mustBind(t, and) }); allocs != 1 {
		t.Errorf("an AND bound again: %v allocations, want 1", allocs)
	}
}
