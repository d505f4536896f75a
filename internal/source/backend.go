package source

import (
	"fmt"
	"strings"
	"sync"

	"fusionq/internal/oem"
	"fusionq/internal/relation"
)

// Backend is a storage engine behind a wrapper. The three shipped
// implementations deliberately use different internal models (Section 2.1:
// "internally, each source can use a different model, but the wrapper maps
// it to the common view").
type Backend interface {
	// Schema returns the common view the backend's wrapper exports.
	Schema() *relation.Schema
	// Relation returns the exported view as a relation whose rows are in the
	// backend's storage order, the order lq ships. Its Ordered view is what
	// a wrapper answers every query from. The relation is shared: callers
	// must not modify it, and may keep using it after the backend has moved
	// on.
	Relation() (*relation.Relation, error)
}

// memo holds a backend's common view as mapped at one count of the
// backend's writes. The first Relation after a write maps the view; mu makes
// concurrent first uses map it once, and later ones share it and its ordered
// view until the next write.
type memo struct {
	mu     sync.Mutex
	rel    *relation.Relation
	writes int
}

// get returns the view mapped at writes, calling build if there is none.
func (m *memo) get(writes int, build func() (*relation.Relation, error)) (*relation.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rel == nil || m.writes != writes {
		rel, err := build()
		if err != nil {
			return nil, err
		}
		m.rel, m.writes = rel, writes
	}
	return m.rel, nil
}

// ---- Row store -------------------------------------------------------------

// RowBackend is a plain relational row store: the exported view is the
// stored relation itself.
type RowBackend struct {
	rel *relation.Relation
}

// NewRowBackend wraps an in-memory relation.
func NewRowBackend(rel *relation.Relation) *RowBackend { return &RowBackend{rel: rel} }

// Schema implements Backend.
func (b *RowBackend) Schema() *relation.Schema { return b.rel.Schema() }

// Relation implements Backend with the stored relation itself.
func (b *RowBackend) Relation() (*relation.Relation, error) { return b.rel, nil }

// ---- Key–value store -------------------------------------------------------

// KVBackend stores records as encoded strings keyed by merge-attribute item,
// decoding on access — the shape of a dictionary-style or file-per-entity
// source. Encoding is a simple field-separated text format. Reads may run
// concurrently with each other; Put must not run concurrently with anything.
type KVBackend struct {
	schema *relation.Schema
	data   map[string][]string // item -> encoded records
	keys   []string            // insertion-ordered distinct items
	puts   int                 // successful Puts, the memo's write count
	memo   memo
}

// NewKVBackend creates an empty key–value backend exporting schema.
func NewKVBackend(schema *relation.Schema) *KVBackend {
	return &KVBackend{schema: schema, data: make(map[string][]string)}
}

const kvSep = "\x1f"

// Put stores one record. The tuple must pass the schema's Check, and no
// value may hold the field separator kvSep.
func (b *KVBackend) Put(t relation.Tuple) error {
	if err := b.schema.Check(t); err != nil {
		return fmt.Errorf("kv: %w", err)
	}
	parts := make([]string, len(t))
	for i, v := range t {
		if parts[i] = v.Raw(); strings.Contains(parts[i], kvSep) {
			return fmt.Errorf("kv: column %s: value %q holds the field separator", b.schema.Columns()[i].Name, parts[i])
		}
	}
	item := parts[b.schema.MergeIndex()]
	if _, ok := b.data[item]; !ok {
		b.keys = append(b.keys, item)
	}
	b.data[item] = append(b.data[item], strings.Join(parts, kvSep))
	b.puts++
	return nil
}

// decode rebuilds a tuple from its stored encoding. Put refused every value
// holding kvSep, so the record splits into one part a column.
func (b *KVBackend) decode(rec string) (relation.Tuple, error) {
	parts := strings.Split(rec, kvSep)
	t := make(relation.Tuple, len(parts))
	for i, col := range b.schema.Columns() {
		v, err := relation.ParseRaw(parts[i], col.Kind)
		if err != nil {
			return nil, fmt.Errorf("kv: column %s: %w", col.Name, err)
		}
		t[i] = v
	}
	return t, nil
}

// Schema implements Backend.
func (b *KVBackend) Schema() *relation.Schema { return b.schema }

// Relation implements Backend: it decodes every record once a write, item
// by item in insertion order.
func (b *KVBackend) Relation() (*relation.Relation, error) {
	return b.memo.get(b.puts, func() (*relation.Relation, error) {
		rel := relation.NewRelation(b.schema)
		for _, item := range b.keys {
			for _, rec := range b.data[item] {
				t, err := b.decode(rec)
				if err != nil {
					return nil, err
				}
				if err := rel.Insert(t); err != nil {
					return nil, err
				}
			}
		}
		return rel, nil
	})
}

// ---- OEM semistructured store ----------------------------------------------

// OEMBackend exposes an OEM object store (package oem) through a wrapper
// mapping. The store only appends, so its length counts its writes: the
// backend maps the object graph once a write.
type OEMBackend struct {
	store   *oem.Store
	mapping oem.Mapping
	memo    memo
}

// NewOEMBackend wraps an OEM store with the mapping that yields the common
// view.
func NewOEMBackend(store *oem.Store, mapping oem.Mapping) *OEMBackend {
	return &OEMBackend{store: store, mapping: mapping}
}

// Schema implements Backend.
func (b *OEMBackend) Schema() *relation.Schema { return b.mapping.Schema }

// Relation implements Backend with the store's mapping as of its last Add.
func (b *OEMBackend) Relation() (*relation.Relation, error) {
	return b.memo.get(b.store.Len(), func() (*relation.Relation, error) {
		return b.store.ToRelation(b.mapping)
	})
}
