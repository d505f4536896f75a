// Package oem implements a miniature semistructured object store in the
// style of the OEM model used by TSIMMIS, the project the paper's fusion
// problem emerged from (Section 2.1). It exists as one of the heterogeneous
// storage backends behind source wrappers: internally a source may hold
// labelled object graphs, while its wrapper exports the common relational
// view.
package oem

import (
	"fmt"

	"fusionq/internal/relation"
)

// Object is a labelled OEM object: either an atomic value or a set of
// labelled subobjects.
type Object struct {
	Label string
	// Atom is the atomic payload; meaningful only when Children is nil.
	Atom relation.Value
	// Children are labelled subobjects for complex objects.
	Children []*Object
}

// Atomic builds an atomic object.
func Atomic(label string, v relation.Value) *Object {
	return &Object{Label: label, Atom: v}
}

// Complex builds a complex object from subobjects.
func Complex(label string, children ...*Object) *Object {
	return &Object{Label: label, Children: children}
}

// IsAtomic reports whether the object carries an atomic value.
func (o *Object) IsAtomic() bool { return len(o.Children) == 0 }

// Child returns the first subobject with the given label, or nil.
func (o *Object) Child(label string) *Object {
	for _, c := range o.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// String renders the object in OEM's angle-bracket notation.
func (o *Object) String() string {
	if o.IsAtomic() {
		return fmt.Sprintf("<%s %s>", o.Label, o.Atom)
	}
	s := "<" + o.Label + " {"
	for i, c := range o.Children {
		if i > 0 {
			s += " "
		}
		s += c.String()
	}
	return s + "}>"
}

// Store is an append-only collection of top-level complex objects, each
// describing one record (e.g. one violation report at a DMV).
type Store struct {
	root []*Object
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{} }

// Add appends a top-level object, which then belongs to the store: it must
// not be changed afterwards. Add must not run concurrently with anything
// else on the store.
func (s *Store) Add(o *Object) { s.root = append(s.root, o) }

// Len returns the number of top-level objects: as the store only appends,
// also the number of Adds so far.
func (s *Store) Len() int { return len(s.root) }

// Mapping describes how a wrapper maps OEM objects to the common relational
// schema: for each column, the label of the subobject holding its value.
type Mapping struct {
	Schema *relation.Schema
	// Labels[i] is the subobject label providing column i. Empty labels
	// default to the column name.
	Labels []string
}

// label returns the OEM label for column i.
func (m Mapping) label(i int) string {
	if i < len(m.Labels) && m.Labels[i] != "" {
		return m.Labels[i]
	}
	return m.Schema.Columns()[i].Name
}

// ToRelation materializes the wrapper view of the store: one tuple per
// top-level object that provides every mapped column with the right kind.
// Objects missing attributes — common in autonomous, irregular sources —
// are skipped, mirroring how a wrapper exports only the mappable portion.
func (s *Store) ToRelation(m Mapping) (*relation.Relation, error) {
	if m.Schema == nil {
		return nil, fmt.Errorf("oem: mapping has no schema")
	}
	r := relation.NewRelation(m.Schema)
	for _, o := range s.root {
		t := make(relation.Tuple, m.Schema.NumColumns())
		ok := true
		for i, col := range m.Schema.Columns() {
			c := o.Child(m.label(i))
			if c == nil || !c.IsAtomic() || c.Atom.Kind() != col.Kind {
				ok = false
				break
			}
			t[i] = c.Atom
		}
		if !ok {
			continue
		}
		if err := r.Insert(t); err != nil {
			return nil, fmt.Errorf("oem: object %s: %w", o.Label, err)
		}
	}
	return r, nil
}
