package cond

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fusionq/internal/racetest"
	"fusionq/internal/relation"
)

var dmv = relation.MustSchema("L",
	relation.Column{Name: "L", Kind: relation.KindString},
	relation.Column{Name: "V", Kind: relation.KindString},
	relation.Column{Name: "D", Kind: relation.KindInt},
)

func tup(l, v string, d int64) relation.Tuple {
	return relation.Tuple{relation.String(l), relation.String(v), relation.Int(d)}
}

func evalStr(t *testing.T, expr string, row relation.Tuple) bool {
	t.Helper()
	c, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	if err := c.Check(dmv); err != nil {
		t.Fatalf("Check(%q): %v", expr, err)
	}
	ok, err := c.Eval(dmv, row)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return ok
}

func TestParseEvalComparisons(t *testing.T) {
	row := tup("J55", "dui", 1993)
	cases := []struct {
		expr string
		want bool
	}{
		{"V = 'dui'", true},
		{"V = 'sp'", false},
		{"V != 'sp'", true},
		{"V <> 'sp'", true},
		{"D >= 1993", true},
		{"D > 1993", false},
		{"D < 1994", true},
		{"D <= 1992", false},
		{"L = 'J55'", true},
		{"TRUE", true},
	}
	for _, c := range cases {
		if got := evalStr(t, c.expr, row); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestParseEvalBoolean(t *testing.T) {
	row := tup("J55", "dui", 1993)
	cases := []struct {
		expr string
		want bool
	}{
		{"V = 'dui' AND D >= 1993", true},
		{"V = 'dui' AND D > 1993", false},
		{"V = 'sp' OR D = 1993", true},
		{"NOT V = 'sp'", true},
		{"NOT (V = 'dui' AND D = 1993)", false},
		{"V = 'sp' OR V = 'dui' AND D = 1993", true}, // AND binds tighter
		{"(V = 'sp' OR V = 'dui') AND D = 1993", true},
		{"(V = 'sp' OR V = 'xx') AND D = 1993", false},
	}
	for _, c := range cases {
		if got := evalStr(t, c.expr, row); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestParseEvalInAndLike(t *testing.T) {
	row := tup("J55", "dui", 1993)
	cases := []struct {
		expr string
		want bool
	}{
		{"V IN ('dui', 'reckless')", true},
		{"V IN ('sp')", false},
		{"V NOT IN ('sp')", true},
		{"D IN (1992, 1993)", true},
		{"L LIKE 'J%'", true},
		{"L LIKE '%5'", true},
		{"L LIKE 'J_5'", true},
		{"L LIKE 'T%'", false},
		{"L LIKE 'J55'", true},
		{"L LIKE '%'", true},
	}
	for _, c := range cases {
		if got := evalStr(t, c.expr, row); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"", "", true},
		{"%", "", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "abc", true},
		{"a%b%c", "acb", false},
		{"_", "x", true},
		{"_", "", false},
		{"%%", "anything", true},
		{"ab", "ab", true},
		{"ab", "abc", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"V =",
		"= 'dui'",
		"V = 'dui' AND",
		"V LIKE 5",
		"(V = 'dui'",
		"V IN ()",
		"V IN ('a',)",
		"V ! 'x'",
		"V = 'unterminated",
		"V = 'dui' extra",
		"V IN 'a'",
	}
	for _, expr := range bad {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) should fail", expr)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []string{
		"Z = 1",         // unknown attribute
		"D = 'x'",       // int vs string
		"V > 3",         // string vs int
		"D LIKE 'x'",    // LIKE on int
		"D IN (1, 'x')", // mixed IN list
		"Z IN (1)",      // unknown attribute in IN
		"NOT Z = 1",     // nested unknown
		"V = 'a' AND Z = 1",
		"V = 'a' OR Z = 1",
	}
	for _, expr := range cases {
		c, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		if err := c.Check(dmv); err == nil {
			t.Errorf("Check(%q) should fail", expr)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	row := tup("J55", "dui", 1993)
	for _, expr := range []string{"Z = 1", "D = 'x'"} {
		c, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		if _, err := c.Eval(dmv, row); err == nil {
			t.Errorf("Eval(%q) should fail", expr)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		"V = 'dui'",
		"V = 'dui' AND D >= 1993",
		"NOT (V = 'sp' OR D < 1990)",
		"V IN ('a', 'b') AND L LIKE 'J%'",
		"TRUE",
		"D IN (1, 2, 3)",
	}
	row := tup("J55", "dui", 1993)
	for _, expr := range exprs {
		c1 := MustParse(expr)
		c2, err := Parse(c1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q from %q): %v", c1.String(), expr, err)
		}
		v1, err1 := c1.Eval(dmv, row)
		v2, err2 := c2.Eval(dmv, row)
		if v1 != v2 || (err1 == nil) != (err2 == nil) {
			t.Errorf("round trip of %q changed semantics", expr)
		}
	}
}

func TestAttrs(t *testing.T) {
	c := MustParse("V = 'dui' AND (D > 1 OR NOT L IN ('a'))")
	got := Attrs(c)
	sort.Strings(got)
	want := []string{"D", "L", "V"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Attrs = %v, want %v", got, want)
	}
	if len(Attrs(True{})) != 0 {
		t.Error("Attrs(TRUE) should be empty")
	}
}

func TestPropNotInvolution(t *testing.T) {
	f := func(d int64) bool {
		row := tup("X", "v", d)
		c := MustParse("D >= 100")
		nn := &Not{C: &Not{C: c}}
		a, _ := c.Eval(dmv, row)
		b, _ := nn.Eval(dmv, row)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAndOrDuality(t *testing.T) {
	// NOT(a AND b) == NOT a OR NOT b over random int rows.
	f := func(d int64) bool {
		row := tup("X", "v", d)
		a := MustParse("D >= 0")
		b := MustParse("D < 1000")
		lhs := &Not{C: &And{L: a, R: b}}
		rhs := &Or{L: &Not{C: a}, R: &Not{C: b}}
		x, _ := lhs.Eval(dmv, row)
		y, _ := rhs.Eval(dmv, row)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUTF8Identifiers: an identifier is read as UTF-8, and an unexpected
// character is named as its rune.
func TestUTF8Identifiers(t *testing.T) {
	for text, want := range map[string]string{"Größe < 5": "Größe", "名前 = 'x'": "名前"} {
		c, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := Attrs(c); len(got) != 1 || got[0] != want {
			t.Errorf("Parse(%q) names %v, want [%s]", text, got, want)
		}
	}
	if _, err := Parse("V = 'a' ¶"); err == nil || !strings.Contains(err.Error(), `'¶' at offset 8`) {
		t.Errorf("Parse of a stray '¶': %v", err)
	}
}

func TestBetween(t *testing.T) {
	row := tup("J55", "dui", 1993)
	cases := []struct {
		expr string
		want bool
	}{
		{"D BETWEEN 1990 AND 1995", true},
		{"D BETWEEN 1993 AND 1993", true},
		{"D BETWEEN 1994 AND 1999", false},
		{"D BETWEEN 1990 AND 1992", false},
		{"V BETWEEN 'a' AND 'e'", true},
		{"D BETWEEN 1990 AND 1995 AND V = 'dui'", true},
		{"NOT D BETWEEN 1994 AND 1999", true},
	}
	for _, c := range cases {
		if got := evalStr(t, c.expr, row); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
	for _, bad := range []string{"D BETWEEN", "D BETWEEN 1 OR 2", "D BETWEEN 1 AND"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseAllocs: the parser lexes into an array on its own stack, so a
// comparison parses in one allocation, its node.
func TestParseAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	for _, text := range []string{"A1 < 500", "a1 < 500", "D >= 1993", "V = 'dui'"} {
		if allocs := testing.AllocsPerRun(100, func() { MustParse(text) }); allocs != 1 {
			t.Errorf("Parse(%q): %v allocations, want 1", text, allocs)
		}
	}
}

// TestKeywordsInAnyCase: a word is a keyword exactly when strings.ToUpper
// makes one of it, and its token's text is the keyword upper case. "ªnd",
// "Größe" and "ın" are words the lexer takes whole that are not ASCII; "ın"
// upper-cases to IN.
func TestKeywordsInAnyCase(t *testing.T) {
	for _, word := range []string{"and", "AnD", "between", "BETWEENX", "betwee", "in", "where", "a1", "Like_", "x", "ªnd", "Größe", "ın"} {
		toks, err := lex(nil, word)
		if err != nil {
			t.Fatalf("lex(%q): %v", word, err)
		}
		upper := strings.ToUpper(word)
		_, want := keywords[upper]
		if got := toks[0].kind == tokKeyword; got != want || got && toks[0].text != upper {
			t.Errorf("lex(%q) = %+v; keyword %v, want %v (%q)", word, toks[0], got, want, upper)
		}
	}
}
