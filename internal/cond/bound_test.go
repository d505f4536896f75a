package cond

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fusionq/internal/relation"
)

// every has a column of each kind.
var every = relation.MustSchema("ID",
	relation.Column{Name: "ID", Kind: relation.KindString},
	relation.Column{Name: "I", Kind: relation.KindInt},
	relation.Column{Name: "F", Kind: relation.KindFloat},
	relation.Column{Name: "S", Kind: relation.KindString},
	relation.Column{Name: "B", Kind: relation.KindBool},
)

// The pools hold the values that set the kernel's native comparisons apart
// from Value.Compare's: NaN (equal to everything there), the infinities, ints
// past 2^53 (equal to their neighbours through float64), the empty string,
// strings of more than one byte a rune and of bytes that are no rune at all.
var (
	intPool     = []int64{0, 1, -1, 7, 50, 99, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	floatPool   = []float64{0, 0.5, -0.5, 7, 50, 1 << 53, 1<<53 + 2, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxInt64}
	stringPool  = []string{"", "x", "y", "yy", "xyz", "é", "日本", "a%b", "_", "\xff", "x\xffy"}
	patternPool = []string{"", "%", "_", "x%", "%y", "%y%", "_y", "x_z", "%é", "日_", "%\xff%", "a%%b", "%_"}
)

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.Intn(len(pool))] }

// randomRelation draws n tuples of every over a universe small enough that
// items carry several tuples each.
func randomRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.NewRelation(every)
	universe := 1 + rng.Intn(1+n/3)
	for i := 0; i < n; i++ {
		rel.MustInsert(
			relation.String(fmt.Sprintf("I%03d", rng.Intn(universe))),
			relation.Int(pick(rng, intPool)),
			relation.Float(pick(rng, floatPool)),
			relation.String(pick(rng, stringPool)),
			relation.Bool(rng.Intn(2) == 0),
		)
	}
	return rel
}

// randomLiteral draws a literal Check accepts for the named attribute of
// every: numeric columns take literals of either numeric kind.
func randomLiteral(rng *rand.Rand, attr string) relation.Value {
	switch attr {
	case "I", "F":
		if rng.Intn(2) == 0 {
			return relation.Int(pick(rng, intPool))
		}
		return relation.Float(pick(rng, floatPool))
	case "B":
		return relation.Bool(rng.Intn(2) == 0)
	default:
		return relation.String(pick(rng, stringPool))
	}
}

// randomCond draws a condition of every node kind that passes Check(every).
func randomCond(rng *rand.Rand, depth int) Cond {
	attr := pick(rng, []string{"ID", "I", "F", "S", "B"})
	switch k := rng.Intn(10); {
	case depth > 0 && k == 0:
		return &And{L: randomCond(rng, depth-1), R: randomCond(rng, depth-1)}
	case depth > 0 && k == 1:
		return &Or{L: randomCond(rng, depth-1), R: randomCond(rng, depth-1)}
	case depth > 0 && k == 2:
		return &Not{C: randomCond(rng, depth-1)}
	case k == 3:
		return True{}
	case k == 4:
		return &Compare{Attr: pick(rng, []string{"ID", "S"}), Op: OpLike, Lit: relation.String(pick(rng, patternPool))}
	case k == 5:
		in := &In{Attr: attr}
		for n := rng.Intn(4); n > 0; n-- { // an empty list one time in four
			in.Vals = append(in.Vals, randomLiteral(rng, attr))
		}
		return in
	default:
		return &Compare{Attr: attr, Op: Op(rng.Intn(int(OpGe) + 1)), Lit: randomLiteral(rng, attr)}
	}
}

// checkBoundMatchesEval binds c to rel's schema and holds the kernel to Eval
// on every row of rel: over the whole view, then over a window of it with
// the same Pred, the way a semijoin probes one group after another.
func checkBoundMatchesEval(t *testing.T, rng *rand.Rand, rel *relation.Relation, c Cond) {
	t.Helper()
	schema := rel.Schema()
	pred, err := c.Bind(schema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", c, err)
	}
	view := rel.Ordered()
	want := make([]bool, len(view.Rows))
	for i, row := range view.Rows {
		if want[i], err = c.Eval(schema, row); err != nil {
			t.Fatalf("%s: Eval(%v): %v", c, row, err)
		}
	}
	got := matchAll(pred, view)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %v: kernel %v, Eval %v", c, view.Rows[i], got[i], want[i])
		}
	}
	if len(want) == 0 {
		return
	}
	lo := rng.Intn(len(want))
	window := make([]bool, 1+rng.Intn(len(want)-lo))
	pred.Match(view, lo, window)
	for i := range window {
		if window[i] != want[lo+i] {
			t.Fatalf("%s: rows [%d,%d): row %v: kernel %v, Eval %v", c, lo, lo+len(window), view.Rows[lo+i], window[i], want[lo+i])
		}
	}
}

func TestBoundMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		rel := randomRelation(rng, rng.Intn(120)) // the empty relation too
		for k := 0; k < 25; k++ {
			checkBoundMatchesEval(t, rng, rel, randomCond(rng, 3))
		}
	}
	// Ints past 2^53 against float literals, spelled out: the neighbours of
	// 2^53 are one float64, so all of them equal the literal 2^53.
	rel := relation.NewRelation(every)
	for i, n := range []int64{1<<53 - 1, 1 << 53, 1<<53 + 1} {
		rel.MustInsert(relation.String(fmt.Sprint(i)), relation.Int(n), relation.Float(0), relation.String(""), relation.Bool(false))
	}
	got := matchAll(mustBind(t, &Compare{Attr: "I", Op: OpEq, Lit: relation.Float(1 << 53)}), rel.Ordered())
	if want := []bool{false, true, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("I = 2^53 over 2^53-1, 2^53, 2^53+1: kernel %v, want %v", got, want)
	}
}

func mustBind(t *testing.T, c Cond) Pred {
	t.Helper()
	p, err := c.Bind(every)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// permuted has every's columns, each in another place.
var permuted = relation.MustSchema("ID",
	relation.Column{Name: "S", Kind: relation.KindString},
	relation.Column{Name: "B", Kind: relation.KindBool},
	relation.Column{Name: "ID", Kind: relation.KindString},
	relation.Column{Name: "F", Kind: relation.KindFloat},
	relation.Column{Name: "I", Kind: relation.KindInt},
)

// permute is rel, a relation of every, as a relation of permuted.
func permute(rel *relation.Relation) *relation.Relation {
	out := relation.NewRelation(permuted)
	for _, row := range rel.Rows() {
		perm := make(relation.Tuple, len(row))
		for k, col := range every.Columns() {
			i, _ := permuted.Index(col.Name)
			perm[i] = row[k]
		}
		out.MustInsert(perm...)
	}
	return out
}

// FuzzBoundMatchesEval draws the relation from the seed and takes the
// condition from the text when it parses and fits the schema, from the seed
// otherwise. It binds the condition twice, so the second bind reuses the
// leaves the first kept, then to a schema that puts every column elsewhere,
// where a leaf kept for its old column reads the wrong one, and back.
func FuzzBoundMatchesEval(f *testing.F) {
	for seed, expr := range []string{
		"I < 50",
		"I >= 9007199254740992.0 OR F = 0.5",
		"NOT (S LIKE '%y%' AND B = true)",
		"F IN (0.5, 7) AND ID LIKE 'I00_'",
		"S IN ('', 'é') OR B != false",
		"S > 'x' AND S <= 'yy'",
		"TRUE",
		"",
	} {
		f.Add(int64(seed), expr)
	}
	f.Fuzz(func(t *testing.T, seed int64, expr string) {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, rng.Intn(60))
		c, err := Parse(expr)
		if err != nil || c.Check(every) != nil {
			c = randomCond(rng, 3)
		}
		moved := permute(rel)
		for _, r := range []*relation.Relation{rel, rel, moved, rel} {
			checkBoundMatchesEval(t, rng, r, c)
		}
	})
}

// TestBindSharedAcrossGoroutines binds one condition from several goroutines
// at once, each a source of its own over one of two schemas that place the
// columns differently, and holds every kernel to Eval. The leaves' kept
// kernels are shared and replaced under the goroutines' feet; the race
// detector watches them.
func TestBindSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustParse("(I < 50 OR S IN ('x', 'yy')) AND NOT F >= 7")
	var rels []*relation.Relation
	for k := 0; k < 4; k++ {
		rel := randomRelation(rng, 40)
		if k%2 == 1 {
			rel = permute(rel)
		}
		rels = append(rels, rel)
	}
	var wg sync.WaitGroup
	for _, rel := range rels {
		view, schema := rel.Ordered(), rel.Schema()
		want := make([]bool, len(view.Rows))
		for i, row := range view.Rows {
			want[i], _ = c.Eval(schema, row)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pred, err := c.Bind(schema)
				if err != nil {
					t.Errorf("Bind(%s): %v", c, err)
					return
				}
				if got := matchAll(pred, view); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s over %s: kernel %v, Eval %v", c, schema.Columns(), got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
