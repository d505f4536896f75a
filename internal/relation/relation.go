package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tuple is one row of a relation; values align with the schema's columns.
type Tuple []Value

// Relation is an in-memory relation with the common schema and an ordered
// index on the merge attribute, the structure every storage backend
// ultimately materializes through its wrapper. Reads may run concurrently
// with each other; Insert must not run concurrently with anything.
type Relation struct {
	schema *Schema
	rows   []Tuple
	bytes  int

	// ordered is the item-ordered view, built on first use and dropped by
	// Insert. Readers load it without locking (a semijoin looks it up once
	// per probed item); build serializes concurrent first uses and calls no
	// caller-supplied code.
	ordered atomic.Pointer[Ordered]
	build   sync.Mutex
}

// Ordered is a relation's index on the merge attribute: every tuple, grouped
// by item, the groups in ascending item order, once as tuples and once as
// columns. Sources answer selections by running the condition over the
// columns front to back (the matching items come out sorted and distinct) and
// passed-binding queries by searching Items. Every slice is shared with the
// relation and must not be modified.
type Ordered struct {
	// Items holds the distinct merge-attribute items, sorted.
	Items []string
	// Rows holds the tuple headers of the whole relation, contiguous, in
	// (item, insertion) order.
	Rows []Tuple
	// Start[g] is the index in Rows of the first tuple of Items[g];
	// Start[len(Items)] is len(Rows).
	Start []int
	// Cols holds one vector per schema column: Cols[c] carries the values of
	// column c in Rows order. A scan of one attribute reads its vector
	// sequentially and touches no tuple.
	Cols []Vector
}

// Vector is one column of an ordered view at the column's native width: the
// slice of the column's kind has one entry per row, the other three are nil.
type Vector struct {
	Ints    []int64
	Floats  []float64
	Strings []string
	Bools   []bool
}

// Group returns the tuples of Items[g] in insertion order, clipped so an
// append cannot reach the next group.
func (o *Ordered) Group(g int) []Tuple {
	lo, hi := o.Start[g], o.Start[g+1]
	return o.Rows[lo:hi:hi]
}

// Seek returns the index of the first group at or after from whose item is
// not below item, and whether that group is item's. It gallops forward from
// from, so a caller walking a sorted list of items through the view pays for
// the distance between neighbours and not for the view's size; Seek(0, item)
// is a plain search.
func (o *Ordered) Seek(from int, item string) (int, bool) {
	lo, hi, step := from, from, 1
	for hi < len(o.Items) && o.Items[hi] < item {
		lo = hi + 1
		hi += step
		step *= 2
	}
	// The gallop stopped on the first probe not below item, or past the end.
	hi = min(hi+1, len(o.Items))
	g, ok := sort.Find(hi-lo, func(i int) int { return strings.Compare(item, o.Items[lo+i]) })
	return lo + g, ok
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Insert appends a tuple after Schema.Check.
func (r *Relation) Insert(t Tuple) error {
	if err := r.schema.Check(t); err != nil {
		return err
	}
	for _, v := range t {
		r.bytes += v.Bytes()
	}
	r.rows = append(r.rows, t)
	r.ordered.Store(nil)
	return nil
}

// Share returns a relation holding r's rows and ordered view without copying
// either: what a load hands out, so that its caller may Insert without
// touching r. The rows have no room past their length, so an Insert into the
// share copies them and drops its view, which stays as it is for r.
func (r *Relation) Share() *Relation {
	s := &Relation{schema: r.schema, rows: r.rows[:len(r.rows):len(r.rows)], bytes: r.bytes}
	s.ordered.Store(r.Ordered())
	return s
}

// Ordered returns the item-ordered view of the relation as it stands,
// building it if no earlier call has since the last Insert.
func (r *Relation) Ordered() *Ordered {
	if o := r.ordered.Load(); o != nil {
		return o
	}
	r.build.Lock()
	defer r.build.Unlock()
	o := r.ordered.Load()
	if o == nil {
		o = newOrdered(r.schema, r.rows)
		r.ordered.Store(o)
	}
	return o
}

// newOrdered builds the ordered view of rows, which must fit schema: it sorts
// them by (item, position in rows), records the group boundaries and spreads
// the values over the column vectors. rows itself is left as it is.
func newOrdered(schema *Schema, rows []Tuple) *Ordered {
	mergeIdx := schema.MergeIndex()
	type key struct {
		item string
		pos  int
	}
	keys := make([]key, len(rows))
	for i, t := range rows {
		keys[i] = key{t[mergeIdx].Raw(), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := strings.Compare(a.item, b.item); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	distinct := 0
	for i, k := range keys {
		if i == 0 || k.item != keys[i-1].item {
			distinct++
		}
	}
	o := &Ordered{
		Items: make([]string, 0, distinct),
		Rows:  make([]Tuple, len(rows)),
		Start: make([]int, 0, distinct+1),
		Cols:  make([]Vector, schema.NumColumns()),
	}
	for i, k := range keys {
		if i == 0 || k.item != keys[i-1].item {
			o.Items = append(o.Items, k.item)
			o.Start = append(o.Start, i)
		}
		o.Rows[i] = rows[k.pos]
	}
	o.Start = append(o.Start, len(rows))
	for c, col := range schema.Columns() {
		switch vec := &o.Cols[c]; col.Kind {
		case KindInt:
			vec.Ints = make([]int64, len(rows))
			for i, t := range o.Rows {
				vec.Ints[i] = t[c].i
			}
		case KindFloat:
			vec.Floats = make([]float64, len(rows))
			for i, t := range o.Rows {
				vec.Floats[i] = t[c].f
			}
		case KindString:
			vec.Strings = make([]string, len(rows))
			for i, t := range o.Rows {
				vec.Strings[i] = t[c].s
			}
		case KindBool:
			vec.Bools = make([]bool, len(rows))
			for i, t := range o.Rows {
				vec.Bools[i] = t[c].b
			}
		}
	}
	return o
}

// MustInsert inserts values (one per column) and panics on error; a
// convenience for tests, examples and generators.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Row returns the i-th tuple.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns all tuples. The slice must not be modified.
func (r *Relation) Rows() []Tuple { return r.rows }

// Item returns the merge-attribute item of tuple t under this relation's
// schema.
func (r *Relation) Item(t Tuple) string { return t[r.schema.MergeIndex()].Raw() }

// RowsWithItem returns the tuples whose merge attribute equals item, in
// insertion order, or nil when there are none. It is the lookup a source
// performs to answer a passed-binding query c AND M = item. The slice is a
// window of the ordered view and must not be modified.
func (r *Relation) RowsWithItem(item string) []Tuple {
	o := r.Ordered()
	g, ok := o.Seek(0, item)
	if !ok {
		return nil
	}
	return o.Group(g)
}

// DistinctItems returns the number of distinct merge-attribute values.
func (r *Relation) DistinctItems() int { return len(r.Ordered().Items) }

// Bytes estimates the wire size of the whole relation, the quantity charged
// when a plan loads an entire source with lq (Section 4).
func (r *Relation) Bytes() int { return r.bytes }

// String renders the relation as a small fixed-width table, in the style of
// the paper's Figure 1.
func (r *Relation) String() string {
	var b strings.Builder
	cols := r.schema.Columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.rows))
	for ri, t := range r.rows {
		cells[ri] = make([]string, len(cols))
		for ci, v := range t {
			s := v.Raw()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range cols {
		fmt.Fprintf(&b, "%-*s ", widths[i], c.Name)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			fmt.Fprintf(&b, "%-*s ", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
