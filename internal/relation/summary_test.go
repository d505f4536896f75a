package relation

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

var summarySchema = MustSchema("L",
	Column{Name: "L", Kind: KindString},
	Column{Name: "V", Kind: KindString},
	Column{Name: "D", Kind: KindInt},
	Column{Name: "OK", Kind: KindBool},
)

// summaryFixture has four items: J55 with two tuples that share V, S07 with
// two that share D, and two single-tuple items.
func summaryFixture() *Relation {
	r := NewRelation(summarySchema)
	for _, row := range []struct {
		l, v string
		d    int64
	}{{"T21", "sp", 1994}, {"J55", "dui", 1993}, {"S07", "sp", 1996}, {"J55", "dui", 1997}, {"T80", "dui", 1993}, {"S07", "x", 1996}} {
		r.MustInsert(String(row.l), String(row.v), Int(row.d), Bool(true))
	}
	return r
}

// TestSummarizeCountsItems pins what a summary holds: every count is of
// items, an item's repeated value counts once, a value of one item goes to
// the tail, and the merge attribute is all tail.
func TestSummarizeCountsItems(t *testing.T) {
	rel := summaryFixture()
	got := rel.Summarize()
	want := &Summary{
		Tuples: 6, DistinctItems: 4, Bytes: rel.Bytes(),
		Numeric: map[string]*NumericStats{"D": {
			// Smallest D by item: J55 1993, S07 1996, T21 1994, T80 1993.
			Low: []float64{1993, 1993, 1994, 1996},
			// Largest: J55 1997, S07 1996, T21 1994, T80 1993.
			High:   []float64{1993, 1994, 1996, 1997},
			Values: ValueCounts{MCV: map[string]float64{"1993": 2}, OtherCount: 3, OtherDistinct: 3},
		}},
		Strings: map[string]*ValueCounts{
			"L": {OtherCount: 4, OtherDistinct: 4},
			"V": {MCV: map[string]float64{"dui": 2, "sp": 2}, OtherCount: 1, OtherDistinct: 1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("summary\n got  %s\n want %s", g, w)
	}

	// The line form is the value: what a peer decodes is what was encoded.
	line, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, got) {
		t.Fatalf("decoded %+v from %s", back, line)
	}
	if got.Size() <= 0 || got.Size() >= rel.Bytes()*4 {
		t.Fatalf("Size() = %d for a relation of %d bytes", got.Size(), rel.Bytes())
	}
}

// TestSummaryStaysCompact: the summary of a relation with unique and
// high-cardinality columns is bounded by the bucket and MCV limits, not by
// the relation.
func TestSummaryStaysCompact(t *testing.T) {
	schema := MustSchema("ID",
		Column{Name: "ID", Kind: KindString},
		Column{Name: "A", Kind: KindInt},
		Column{Name: "F", Kind: KindFloat},
		Column{Name: "P", Kind: KindString},
	)
	r := NewRelation(schema)
	const n = 3 * summaryTrackLimit
	for i := 0; i < n; i++ {
		r.MustInsert(String(fmt.Sprintf("ID%06d", i)), Int(int64(i%700)), Float(float64(i)+0.5), String(fmt.Sprintf("payload-%d", i)))
	}
	sum := r.Summarize()
	if sum.Tuples != n || sum.DistinctItems != n {
		t.Fatalf("counts = %d/%d", sum.Tuples, sum.DistinctItems)
	}
	for _, attr := range []string{"A", "F"} {
		h := sum.Numeric[attr]
		if len(h.Low) != SummaryBuckets+1 || len(h.High) != SummaryBuckets+1 || len(h.Values.MCV) > SummaryMCVLimit {
			t.Fatalf("%s: %d/%d boundaries, %d common values", attr, len(h.Low), len(h.High), len(h.Values.MCV))
		}
	}
	// Every ID and payload is unique: no common values, and a tail that
	// counts each, also past the tracking limit.
	for _, attr := range []string{"ID", "P"} {
		st := sum.Strings[attr]
		if len(st.MCV) != 0 || st.OtherCount != n || st.OtherDistinct != n {
			t.Fatalf("%s: %+v", attr, st)
		}
	}
	// A's 700 values are all tracked: the 64 commonest listed, the rest
	// exactly in the tail.
	if a := sum.Numeric["A"].Values; len(a.MCV) != SummaryMCVLimit || a.OtherDistinct != 700-SummaryMCVLimit {
		t.Fatalf("A: %d common values, tail of %v distinct", len(a.MCV), a.OtherDistinct)
	}
	if size := sum.Size(); size > 8<<10 {
		t.Fatalf("Size() = %d bytes for %d tuples: not compact", size, n)
	}
}
