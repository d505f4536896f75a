package sqlparse

import (
	"fmt"
	"sort"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
)

// FusionQuery is the normalized form consumed by the fusion optimizer: the
// merge attribute and one condition per U variable, in FROM order, with
// attribute qualifiers stripped.
type FusionQuery struct {
	Merge string
	Conds []cond.Cond
}

// fusion checks that the parsed query has the fusion pattern of Section 2.2
// against the given common schema and extracts the normalized form:
//
//   - every FROM relation is the same union view;
//   - the merge-link equalities all equate the merge attribute and connect
//     every variable into a single component;
//   - the projection is the merge attribute of one of the variables;
//   - each remaining predicate references a single variable and type-checks
//     against the schema. Variables with no predicate get condition TRUE.
func (q *query) fusion(schema *relation.Schema) (*FusionQuery, error) {
	union := q.From[0].Relation
	aliases := map[string]bool{}
	for _, f := range q.From {
		if f.Relation != union {
			return nil, fmt.Errorf("sqlparse: not a fusion query: FROM mixes %s and %s", union, f.Relation)
		}
		if aliases[f.Alias] {
			return nil, fmt.Errorf("sqlparse: duplicate alias %q", f.Alias)
		}
		aliases[f.Alias] = true
	}

	merge := schema.Merge()
	if q.SelectAttr != merge {
		return nil, fmt.Errorf("sqlparse: not a fusion query: projection %s is not the merge attribute %s", q.SelectAttr, merge)
	}
	if q.SelectVar != "" && !aliases[q.SelectVar] {
		return nil, fmt.Errorf("sqlparse: unknown variable %q in SELECT", q.SelectVar)
	}

	// The merge links must equate merge attributes of known variables and
	// connect all variables.
	parent := map[string]string{}
	for a := range aliases {
		parent[a] = a
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, l := range q.MergeLinks {
		if !aliases[l.LVar] || !aliases[l.RVar] {
			return nil, fmt.Errorf("sqlparse: merge link %s.%s = %s.%s uses unknown variable", l.LVar, l.LAttr, l.RVar, l.RAttr)
		}
		if l.LAttr != merge || l.RAttr != merge {
			return nil, fmt.Errorf("sqlparse: not a fusion query: join %s.%s = %s.%s is not on the merge attribute", l.LVar, l.LAttr, l.RVar, l.RAttr)
		}
		parent[find(l.LVar)] = find(l.RVar)
	}
	if len(q.From) > 1 {
		root := find(q.From[0].Alias)
		for _, f := range q.From[1:] {
			if find(f.Alias) != root {
				return nil, fmt.Errorf("sqlparse: not a fusion query: variable %s is not linked on %s", f.Alias, merge)
			}
		}
	}

	// Per-variable conditions, FROM order; missing conditions become TRUE.
	fq := &FusionQuery{Merge: merge}
	used := map[string]bool{}
	for _, f := range q.From {
		c, ok := q.VarConds[f.Alias]
		if !ok {
			c = cond.True{}
		}
		if err := c.Check(schema); err != nil {
			return nil, fmt.Errorf("sqlparse: condition on %s: %w", f.Alias, err)
		}
		fq.Conds = append(fq.Conds, c)
		used[f.Alias] = true
	}
	var unknown []string
	for v := range q.VarConds {
		if !used[v] {
			unknown = append(unknown, v)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("sqlparse: conditions on unknown variables %v", unknown)
	}
	return fq, nil
}

// ParseFusion parses SQL and applies fusion-pattern detection in one step.
func ParseFusion(sql string, schema *relation.Schema) (*FusionQuery, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return q.fusion(schema)
}
