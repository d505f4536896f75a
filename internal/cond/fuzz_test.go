package cond

import (
	"os"
	"strings"
	"testing"

	"fusionq/internal/relation"
)

// parseSeeds are FuzzParse's seeds, one condition a line of
// testdata/parse_seeds.txt. internal/wire round-trips the same file through
// its request codec.
func parseSeeds(tb testing.TB) []string {
	b, err := os.ReadFile("testdata/parse_seeds.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// FuzzParse checks that the condition parser never panics and that every
// successfully parsed condition round-trips through its String form with
// identical evaluation semantics, and prints the same again; TextLen counts
// the printed text.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds(f) {
		f.Add(s)
	}
	schema := relation.MustSchema("L",
		relation.Column{Name: "L", Kind: relation.KindString},
		relation.Column{Name: "V", Kind: relation.KindString},
		relation.Column{Name: "D", Kind: relation.KindInt},
	)
	row := relation.Tuple{relation.String("J55"), relation.String("dui"), relation.Int(1993)}
	f.Fuzz(func(t *testing.T, input string) {
		c, err := Parse(input)
		if err != nil {
			return
		}
		printed := c.String()
		if n := TextLen(c); n != len(printed) {
			t.Fatalf("TextLen of %q is %d, its text %d bytes long", input, n, len(printed))
		}
		c2, err := Parse(printed)
		if err != nil {
			t.Fatalf("round trip failed: Parse(%q) ok but Parse(%q) failed: %v", input, printed, err)
		}
		if again := c2.String(); again != printed {
			t.Fatalf("round trip changed the text: %q printed %q, which prints %q", input, printed, again)
		}
		v1, err1 := c.Eval(schema, row)
		v2, err2 := c2.Eval(schema, row)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && v1 != v2) {
			t.Fatalf("round trip changed semantics: %q vs %q", input, printed)
		}
	})
}
