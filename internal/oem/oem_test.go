package oem

import (
	"reflect"
	"strings"
	"testing"

	"fusionq/internal/relation"
)

var schema = relation.MustSchema("L",
	relation.Column{Name: "L", Kind: relation.KindString},
	relation.Column{Name: "V", Kind: relation.KindString},
	relation.Column{Name: "D", Kind: relation.KindInt},
)

func violation(l, v string, d int64) *Object {
	return Complex("violation",
		Atomic("license", relation.String(l)),
		Atomic("vtype", relation.String(v)),
		Atomic("year", relation.Int(d)),
	)
}

func TestObjectBasics(t *testing.T) {
	o := violation("J55", "dui", 1993)
	if o.IsAtomic() {
		t.Fatal("complex object reported atomic")
	}
	c := o.Child("vtype")
	if c == nil || !c.IsAtomic() || c.Atom.Str() != "dui" {
		t.Fatalf("Child(vtype) = %v", c)
	}
	if o.Child("nope") != nil {
		t.Fatal("Child on missing label should be nil")
	}
}

func TestObjectString(t *testing.T) {
	o := violation("J55", "dui", 1993)
	s := o.String()
	for _, want := range []string{"<violation", "<license 'J55'>", "<year 1993>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	a := Atomic("x", relation.Int(5))
	if a.String() != "<x 5>" {
		t.Errorf("atomic String() = %q", a.String())
	}
}

func TestToRelation(t *testing.T) {
	st := NewStore()
	st.Add(violation("J55", "dui", 1993))
	st.Add(violation("T21", "sp", 1994))
	m := Mapping{Schema: schema, Labels: []string{"license", "vtype", "year"}}
	r, err := st.ToRelation(m)
	if err != nil {
		t.Fatalf("ToRelation: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Ordered().Items; !reflect.DeepEqual(got, []string{"J55", "T21"}) {
		t.Fatalf("Ordered().Items = %v", got)
	}
}

func TestToRelationDefaultLabels(t *testing.T) {
	st := NewStore()
	st.Add(Complex("rec",
		Atomic("L", relation.String("A1")),
		Atomic("V", relation.String("sp")),
		Atomic("D", relation.Int(2000)),
	))
	r, err := st.ToRelation(Mapping{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 with default labels", r.Len())
	}
}

func TestToRelationSkipsIrregular(t *testing.T) {
	st := NewStore()
	st.Add(violation("J55", "dui", 1993))
	// Missing year.
	st.Add(Complex("violation",
		Atomic("license", relation.String("T21")),
		Atomic("vtype", relation.String("sp")),
	))
	// Wrong kind for year.
	st.Add(Complex("violation",
		Atomic("license", relation.String("T80")),
		Atomic("vtype", relation.String("dui")),
		Atomic("year", relation.String("nineteen-ninety")),
	))
	// Complex (non-atomic) year.
	st.Add(Complex("violation",
		Atomic("license", relation.String("T99")),
		Atomic("vtype", relation.String("dui")),
		Complex("year", Atomic("y", relation.Int(1999))),
	))
	m := Mapping{Schema: schema, Labels: []string{"license", "vtype", "year"}}
	r, err := st.ToRelation(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (three irregular objects skipped)", r.Len())
	}
}

func TestToRelationNilSchema(t *testing.T) {
	if _, err := NewStore().ToRelation(Mapping{}); err == nil {
		t.Fatal("nil schema should fail")
	}
}

func TestStoreLen(t *testing.T) {
	st := NewStore()
	if st.Len() != 0 {
		t.Fatal("new store should be empty")
	}
	st.Add(violation("J55", "dui", 1993))
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}
