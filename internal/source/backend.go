package source

import (
	"fmt"
	"strconv"
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

	// rel holds the decoded records, built by the first Relation after a
	// Put; mu guards it so concurrent first uses decode once.
	mu  sync.Mutex
	rel *relation.Relation
}

// NewKVBackend creates an empty key–value backend exporting schema.
func NewKVBackend(schema *relation.Schema) *KVBackend {
	return &KVBackend{schema: schema, data: make(map[string][]string)}
}

const kvSep = "\x1f"

// Put stores one record. The tuple must match the backend's schema.
func (b *KVBackend) Put(t relation.Tuple) error {
	if len(t) != b.schema.NumColumns() {
		return fmt.Errorf("kv: tuple arity %d, want %d", len(t), b.schema.NumColumns())
	}
	parts := make([]string, len(t))
	for i, v := range t {
		if v.Kind() != b.schema.Columns()[i].Kind {
			return fmt.Errorf("kv: column %s kind mismatch", b.schema.Columns()[i].Name)
		}
		parts[i] = v.Raw()
	}
	item := t[b.schema.MergeIndex()].Raw()
	if _, ok := b.data[item]; !ok {
		b.keys = append(b.keys, item)
	}
	b.data[item] = append(b.data[item], strings.Join(parts, kvSep))
	b.mu.Lock()
	b.rel = nil
	b.mu.Unlock()
	return nil
}

// decode rebuilds a tuple from its stored encoding.
func (b *KVBackend) decode(rec string) (relation.Tuple, error) {
	parts := strings.Split(rec, kvSep)
	if len(parts) != b.schema.NumColumns() {
		return nil, fmt.Errorf("kv: corrupt record %q", rec)
	}
	t := make(relation.Tuple, len(parts))
	for i, col := range b.schema.Columns() {
		v, err := decodeValue(parts[i], col.Kind)
		if err != nil {
			return nil, fmt.Errorf("kv: column %s: %w", col.Name, err)
		}
		t[i] = v
	}
	return t, nil
}

func decodeValue(raw string, k relation.Kind) (relation.Value, error) {
	switch k {
	case relation.KindString:
		return relation.String(raw), nil
	case relation.KindInt:
		i, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Float(f), nil
	case relation.KindBool:
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bool(v), nil
	default:
		return relation.Value{}, fmt.Errorf("unknown kind %v", k)
	}
}

// Schema implements Backend.
func (b *KVBackend) Schema() *relation.Schema { return b.schema }

// Relation implements Backend: it decodes every record once, item by item
// in insertion order, and keeps the relation of them until the next Put.
func (b *KVBackend) Relation() (*relation.Relation, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rel == nil {
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
		b.rel = rel
	}
	return b.rel, nil
}

// ---- OEM semistructured store ----------------------------------------------

// OEMBackend exposes an OEM object store (package oem) through a wrapper
// mapping, walking the object graph on every access.
type OEMBackend struct {
	store   *oem.Store
	mapping oem.Mapping
}

// NewOEMBackend wraps an OEM store with the mapping that yields the common
// view.
func NewOEMBackend(store *oem.Store, mapping oem.Mapping) *OEMBackend {
	return &OEMBackend{store: store, mapping: mapping}
}

// Schema implements Backend.
func (b *OEMBackend) Schema() *relation.Schema { return b.mapping.Schema }

// Relation implements Backend with a fresh mapping of the store.
func (b *OEMBackend) Relation() (*relation.Relation, error) {
	return b.store.ToRelation(b.mapping)
}
