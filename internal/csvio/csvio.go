// Package csvio loads relations from CSV files for the command-line tools.
// The first CSV row is the header; the merge attribute is the first column
// unless chosen explicitly. Column kinds are inferred from the first data
// row (int, float, bool, then string) and enforced for the rest.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"fusionq/internal/relation"
)

// Load reads a CSV file into a relation. merge selects the merge attribute;
// empty means the first column.
func Load(path, merge string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	defer f.Close()
	rel, err := Read(f, merge)
	if err != nil {
		return nil, fmt.Errorf("csvio: %s: %w", path, err)
	}
	return rel, nil
}

// Read parses CSV from r into a relation.
func Read(r io.Reader, merge string) (*relation.Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("empty header")
	}
	if merge == "" {
		merge = header[0]
	}

	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading rows: %w", err)
	}
	kinds := make([]relation.Kind, len(header))
	for i := range kinds {
		kinds[i] = relation.KindString
	}
	if len(records) > 0 {
		for i, cell := range records[0] {
			kinds[i] = inferKind(cell)
		}
	}
	cols := make([]relation.Column, len(header))
	for i, name := range header {
		cols[i] = relation.Column{Name: name, Kind: kinds[i]}
	}
	schema, err := relation.NewSchema(merge, cols...)
	if err != nil {
		return nil, err
	}
	rel := relation.NewRelation(schema)
	for rowNum, rec := range records {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("row %d has %d cells, want %d", rowNum+2, len(rec), len(header))
		}
		tup := make(relation.Tuple, len(rec))
		for i, cell := range rec {
			v, err := relation.ParseRaw(cell, kinds[i])
			if err != nil {
				return nil, fmt.Errorf("row %d, column %s: %w", rowNum+2, header[i], err)
			}
			tup[i] = v
		}
		if err := rel.Insert(tup); err != nil {
			return nil, fmt.Errorf("row %d: %w", rowNum+2, err)
		}
	}
	return rel, nil
}

func inferKind(cell string) relation.Kind {
	for _, k := range []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindBool} {
		if _, err := relation.ParseRaw(cell, k); err == nil {
			return k
		}
	}
	return relation.KindString
}
