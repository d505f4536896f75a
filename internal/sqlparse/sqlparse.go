// Package sqlparse parses the SQL form of fusion queries (Section 2.2):
//
//	SELECT u1.M
//	FROM   U u1, U u2, ..., U um
//	WHERE  u1.M = u2.M AND ... AND c1 AND ... AND cm
//
// and implements the fusion-pattern detector that Section 5 proposes
// existing optimizers add: a module that checks whether a query has the
// distinctive fusion shape — a self-join of the union view U on the merge
// attribute, with each remaining predicate touching a single variable — and
// extracts the per-variable conditions for the specialized optimizer. The
// statement is read through cond.Statement, so the conditions follow
// internal/cond's grammar and its precedence (AND binds tighter than OR),
// and every error gives an offset in the SQL text.
package sqlparse

import (
	"fmt"
	"slices"

	"fusionq/internal/cond"
)

// query is the parsed SQL statement before fusion-pattern analysis.
type query struct {
	// SelectVar and SelectAttr are the projected column, e.g. u1 and M.
	// SelectVar is empty when the projection is unqualified.
	SelectVar  string
	SelectAttr string
	From       []fromItem
	// MergeLinks are the variable-to-variable equality predicates, e.g.
	// u1.M = u2.M.
	MergeLinks []mergeLink
	// VarConds are the remaining predicates, grouped by the single variable
	// each references (ANDed together when a variable has several).
	VarConds map[string]cond.Cond
}

// fromItem is one entry of the FROM clause: a relation name and its alias.
type fromItem struct {
	Relation string
	Alias    string
}

// mergeLink is an equality between two variables' attributes.
type mergeLink struct {
	LVar, LAttr string
	RVar, RAttr string
}

// parse parses a fusion-query SQL statement.
func parse(sql string) (*query, error) {
	q, err := parseQuery(sql)
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	return q, nil
}

func parseQuery(sql string) (*query, error) {
	s, err := cond.NewStatement(sql)
	if err != nil {
		return nil, err
	}
	if !s.Accept("SELECT") {
		return nil, s.Expected("SELECT")
	}
	q := &query{VarConds: map[string]cond.Cond{}}
	first, ok := s.Ident()
	if !ok {
		return nil, s.Expected("identifier")
	}
	q.SelectAttr = first
	if s.Accept(".") {
		if q.SelectAttr, ok = s.Ident(); !ok {
			return nil, s.Expected("identifier")
		}
		q.SelectVar = first
	}

	if !s.Accept("FROM") {
		return nil, s.Expected("FROM")
	}
	for {
		rel, ok := s.Ident()
		if !ok {
			return nil, s.Expected("identifier")
		}
		alias, ok := s.Ident()
		if !ok {
			alias = rel
		}
		q.From = append(q.From, fromItem{Relation: rel, Alias: alias})
		if !s.Accept(",") {
			break
		}
	}

	if s.Accept("WHERE") {
		if err := q.parseWhere(s); err != nil {
			return nil, err
		}
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	return q, nil
}

// parseWhere reads the WHERE clause as conjuncts joined by AND, each a
// merge link or a term that names at most one variable. An OR outside
// parentheses binds looser than those ANDs, so it makes the whole clause one
// condition, which then holds no merge link.
func (q *query) parseWhere(s *cond.Statement) error {
	start := s.Mark()
	for {
		if !q.parseMergeLink(s) {
			if err := q.parseCond(s, true); err != nil {
				return err
			}
		}
		if !s.Accept("AND") {
			break
		}
	}
	or := s.Mark()
	if !s.Accept("OR") {
		return nil
	}
	if len(q.MergeLinks) > 0 {
		s.Reset(or)
		return fmt.Errorf("not a fusion query: a merge link is a conjunct of the whole clause: %w", s.Expected("AND"))
	}
	clear(q.VarConds)
	s.Reset(start)
	return q.parseCond(s, false)
}

// parseMergeLink reads a conjunct alias.attr = alias.attr, or reads nothing
// and reports false.
func (q *query) parseMergeLink(s *cond.Statement) bool {
	mark := s.Mark()
	if lv, la, ok := columnRef(s); ok && s.Accept("=") {
		if rv, ra, ok := columnRef(s); ok {
			q.MergeLinks = append(q.MergeLinks, mergeLink{LVar: lv, LAttr: la, RVar: rv, RAttr: ra})
			return true
		}
	}
	s.Reset(mark)
	return false
}

// columnRef reads alias.attr.
func columnRef(s *cond.Statement) (alias, attr string, ok bool) {
	if alias, ok = s.Ident(); ok && s.Accept(".") {
		attr, ok = s.Ident()
		return alias, attr, ok
	}
	return "", "", false
}

// parseCond reads a condition, one operand of AND when term is set, whose
// attributes all name one variable, and files it under that variable with
// its qualifiers stripped.
func (q *query) parseCond(s *cond.Statement, term bool) error {
	var vars []string
	c, err := s.Cond(term, func(v string) {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	})
	if err != nil {
		return err
	}
	if len(vars) > 1 {
		return fmt.Errorf("condition %s must reference one query variable, got %v", c, vars)
	}
	// A condition that names no variable, such as TRUE, holds or fails for
	// the whole query, so it is filed under the first.
	v := q.From[0].Alias
	if len(vars) == 1 {
		v = vars[0]
	}
	if prev, ok := q.VarConds[v]; ok {
		c = &cond.And{L: prev, R: c}
	}
	q.VarConds[v] = c
	return nil
}
