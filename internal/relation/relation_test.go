package relation

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func dmvSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("L",
		Column{"L", KindString},
		Column{"V", KindString},
		Column{"D", KindInt},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := dmvSchema(t)
	if s.Merge() != "L" || s.MergeIndex() != 0 {
		t.Fatalf("merge = %q@%d, want L@0", s.Merge(), s.MergeIndex())
	}
	if i, ok := s.Index("D"); !ok || i != 2 {
		t.Fatalf("Index(D) = %d,%v", i, ok)
	}
	if _, ok := s.Index("Z"); ok {
		t.Fatal("Index(Z) should not exist")
	}
	if k, ok := s.KindOf("V"); !ok || k != KindString {
		t.Fatalf("KindOf(V) = %v,%v", k, ok)
	}
	want := "(L* string, V string, D int)"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("M"); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema("M", Column{"A", KindString}); err == nil {
		t.Error("missing merge column should fail")
	}
	if _, err := NewSchema("A", Column{"A", KindString}, Column{"A", KindInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema("A", Column{"", KindString}); err == nil {
		t.Error("empty column name should fail")
	}
}

func TestSchemaCompatible(t *testing.T) {
	a := dmvSchema(t)
	b := dmvSchema(t)
	if !a.Compatible(b) {
		t.Error("identical schemas should be compatible")
	}
	c := MustSchema("V", Column{"L", KindString}, Column{"V", KindString}, Column{"D", KindInt})
	if a.Compatible(c) {
		t.Error("different merge attribute should be incompatible")
	}
	if a.Compatible(nil) {
		t.Error("nil schema should be incompatible")
	}
	d := MustSchema("L", Column{"L", KindString}, Column{"V", KindString})
	if a.Compatible(d) {
		t.Error("different arity should be incompatible")
	}
}

// figure1R1 builds relation R1 from the paper's Figure 1.
func figure1R1(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation(dmvSchema(t))
	r.MustInsert(String("J55"), String("dui"), Int(1993))
	r.MustInsert(String("T21"), String("sp"), Int(1994))
	r.MustInsert(String("T80"), String("dui"), Int(1993))
	return r
}

func TestRelationInsertAndIndex(t *testing.T) {
	r := figure1R1(t)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if got := r.Ordered().Items; !reflect.DeepEqual(got, []string{"J55", "T21", "T80"}) {
		t.Fatalf("Ordered().Items = %v", got)
	}
	rows := r.RowsWithItem("J55")
	if len(rows) != 1 || rows[0][1].Str() != "dui" {
		t.Fatalf("RowsWithItem(J55) = %v", rows)
	}
	if r.RowsWithItem("nope") != nil {
		t.Fatal("RowsWithItem on absent item should be nil")
	}
	if r.DistinctItems() != 3 {
		t.Fatalf("DistinctItems = %d", r.DistinctItems())
	}
}

func TestRelationDuplicateItems(t *testing.T) {
	r := NewRelation(dmvSchema(t))
	r.MustInsert(String("S07"), String("sp"), Int(1996))
	r.MustInsert(String("S07"), String("sp"), Int(1993))
	if r.Len() != 2 || r.DistinctItems() != 1 {
		t.Fatalf("Len=%d Distinct=%d, want 2/1", r.Len(), r.DistinctItems())
	}
	if got := len(r.RowsWithItem("S07")); got != 2 {
		t.Fatalf("RowsWithItem = %d rows, want 2", got)
	}
}

func TestRelationInsertErrors(t *testing.T) {
	r := NewRelation(dmvSchema(t))
	if err := r.Insert(Tuple{String("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := r.Insert(Tuple{String("x"), Int(1), Int(2)}); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestRelationString(t *testing.T) {
	r := figure1R1(t)
	s := r.String()
	for _, want := range []string{"L", "V", "D", "J55", "dui", "1993"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestRelationBytes(t *testing.T) {
	r := NewRelation(dmvSchema(t))
	r.MustInsert(String("J55"), String("dui"), Int(1993))
	// 3 + 3 + 8 bytes
	if got := r.Bytes(); got != 14 {
		t.Fatalf("Bytes = %d, want 14", got)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := String("a").Compare(Int(1)); err == nil {
		t.Error("string vs int should error")
	}
	if _, err := Bool(true).Compare(Int(1)); err == nil {
		t.Error("bool vs int should error")
	}
}

func TestValueStringAndRaw(t *testing.T) {
	if got := String("dui").String(); got != "'dui'" {
		t.Errorf("String() = %q", got)
	}
	if got := String("dui").Raw(); got != "dui" {
		t.Errorf("Raw() = %q", got)
	}
	if got := Int(42).String(); got != "42" {
		t.Errorf("Int String() = %q", got)
	}
	if got := Float(2.5).String(); got != "2.5" {
		t.Errorf("Float String() = %q", got)
	}
	if got := Bool(true).String(); got != "true" {
		t.Errorf("Bool String() = %q", got)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"'dui'", String("dui")},
		{`"sp"`, String("sp")},
		{"1993", Int(1993)},
		{"-7", Int(-7)},
		{"2.5", Float(2.5)},
		{"true", Bool(true)},
		{"false", Bool(false)},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "12x"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) should fail", bad)
		}
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := Int(a).Compare(Int(b))
		y, _ := Int(b).Compare(Int(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropParseValueRoundTrip(t *testing.T) {
	f := func(n int64, s string) bool {
		vi, err := ParseValue(Int(n).String())
		if err != nil || !vi.Equal(Int(n)) {
			return false
		}
		// Strings round-trip when they contain no quote characters.
		if !strings.ContainsAny(s, `'"`) {
			vs, err := ParseValue(String(s).String())
			if err != nil && s != "" {
				return false
			}
			if err == nil && vs.Raw() != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParseRawInvertsRaw: every value reads back from its Raw text at its
// kind, and text of another kind is refused.
func TestParseRawInvertsRaw(t *testing.T) {
	f := func(n int64, x float64, b bool, s string) bool {
		for _, v := range []Value{Int(n), Float(x), Bool(b), String(s)} {
			got, err := ParseRaw(v.Raw(), v.Kind())
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindInt, KindFloat, KindBool} {
		if _, err := ParseRaw("dui", k); err == nil {
			t.Errorf("ParseRaw(%q, %s) should fail", "dui", k)
		}
	}
}
