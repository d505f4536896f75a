package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of the common schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is the ordered list of attributes exported by every source wrapper.
// Exactly one column is the merge attribute M (Section 2.1): the attribute
// that identifies the real-world entity a tuple refers to.
type Schema struct {
	cols     []Column
	byName   map[string]int
	mergeIdx int
}

// NewSchema builds a schema. merge names the merge attribute and must be one
// of the columns.
func NewSchema(merge string, cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one column")
	}
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols)), mergeIdx: -1}
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
		if c.Name == merge {
			s.mergeIdx = i
		}
	}
	if s.mergeIdx < 0 {
		return nil, fmt.Errorf("relation: merge attribute %q is not a column", merge)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for literals in tests and
// examples.
func MustSchema(merge string, cols ...Column) *Schema {
	s, err := NewSchema(merge, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns the schema's columns in order.
func (s *Schema) Columns() []Column { return s.cols }

// NumColumns returns the number of attributes.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Merge returns the merge attribute's name.
func (s *Schema) Merge() string { return s.cols[s.mergeIdx].Name }

// MergeIndex returns the merge attribute's column index.
func (s *Schema) MergeIndex() int { return s.mergeIdx }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// KindOf returns the kind of the named column.
func (s *Schema) KindOf(name string) (Kind, bool) {
	i, ok := s.byName[name]
	if !ok {
		return 0, false
	}
	return s.cols[i].Kind, true
}

// Check reports whether t fits the schema: one value a column, each of its
// column's kind. It is the one check a tuple passes before a relation or a
// backend stores it.
func (s *Schema) Check(t Tuple) error {
	if len(t) != len(s.cols) {
		return fmt.Errorf("relation: tuple arity %d, schema has %d columns", len(t), len(s.cols))
	}
	for i, c := range s.cols {
		if t[i].Kind() != c.Kind {
			return fmt.Errorf("relation: column %s expects %s, got %s", c.Name, c.Kind, t[i].Kind())
		}
	}
	return nil
}

// Compatible reports whether two schemas describe the same common view:
// same columns in the same order and the same merge attribute. Autonomous
// sources must agree on this view for fusion queries to be well formed.
func (s *Schema) Compatible(t *Schema) bool {
	if t == nil || len(s.cols) != len(t.cols) || s.mergeIdx != t.mergeIdx {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != t.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as e.g. "R(L*, V string, D int)" with the merge
// attribute starred.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if i == s.mergeIdx {
			b.WriteByte('*')
		}
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
