package cond

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fusionq/internal/racetest"
	"fusionq/internal/relation"
)

// textConds are conditions of every node kind and literal kind, the parse
// seeds that parse among them.
func textConds(tb testing.TB) []Cond {
	conds := []Cond{
		&Compare{Attr: "D", Op: OpGe, Lit: relation.Int(-1993)},
		&Compare{Attr: "P", Op: OpLt, Lit: relation.Float(2)},
		&Compare{Attr: "P", Op: OpNe, Lit: relation.Float(0.125)},
		&Compare{Attr: "P", Op: OpEq, Lit: relation.Float(math.Inf(-1))},
		&Compare{Attr: "P", Op: OpEq, Lit: relation.Float(1e300)},
		&Compare{Attr: "P", Op: OpGt, Lit: relation.Float(-5e-324)},
		&Compare{Attr: "V", Op: OpLike, Lit: relation.String("it's")},
		&Compare{Attr: "B", Op: OpEq, Lit: relation.Bool(false)},
		&Compare{Attr: "X", Op: Op(42), Lit: relation.Value{}},
		&In{Attr: "V", Vals: []relation.Value{relation.String("a"), relation.Int(7), relation.Float(3)}},
		&In{Attr: "V"},
		&Not{C: &And{L: True{}, R: &Or{L: True{}, R: &Not{C: True{}}}}},
		&Or{L: &And{L: True{}, R: True{}}, R: &Compare{Attr: "V", Op: OpEq, Lit: relation.String(strings.Repeat("w", 300))}},
	}
	for _, s := range parseSeeds(tb) {
		if c, err := Parse(s); err == nil {
			conds = append(conds, c)
		}
	}
	return conds
}

// sprintText is the renderer String was before it had one buffer: the
// text every condition shipped, charged or keyed has always had.
func sprintText(c Cond) string {
	paren := func(c Cond) string {
		switch c.(type) {
		case *And, *Or:
			return "(" + sprintText(c) + ")"
		}
		return sprintText(c)
	}
	switch c := c.(type) {
	case *Compare:
		return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Lit)
	case *In:
		parts := make([]string, len(c.Vals))
		for i, v := range c.Vals {
			parts[i] = v.String()
		}
		return fmt.Sprintf("%s IN (%s)", c.Attr, strings.Join(parts, ", "))
	case *And:
		return fmt.Sprintf("%s AND %s", paren(c.L), paren(c.R))
	case *Or:
		return fmt.Sprintf("%s OR %s", paren(c.L), paren(c.R))
	case *Not:
		return "NOT " + paren(c.C)
	}
	return "TRUE"
}

// TestTextIsTheSprintfText pins String to the text the fmt renderer made,
// and TextLen to its length.
func TestTextIsTheSprintfText(t *testing.T) {
	for _, c := range textConds(t) {
		want := sprintText(c)
		if got := c.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if n := TextLen(c); n != len(want) {
			t.Errorf("TextLen(%q) = %d, want %d", want, n, len(want))
		}
	}
}

// TestTextLenAllocs checks that counting a condition's text makes nothing,
// whatever the length of its string literals.
func TestTextLenAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own; CI runs this without -race")
	}
	conds := textConds(t)
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		for _, c := range conds {
			n += TextLen(c)
		}
	}); a != 0 {
		t.Fatalf("TextLen over %d conditions allocated %v times, want 0", len(conds), a)
	}
}
