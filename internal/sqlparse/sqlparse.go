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
// extracts the per-variable conditions for the specialized optimizer.
package sqlparse

import (
	"fmt"
	"strings"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
)

// FromItem is one entry of the FROM clause: a relation name and its alias.
type FromItem struct {
	Relation string
	Alias    string
}

// Query is the parsed SQL statement before fusion-pattern analysis.
type Query struct {
	// SelectVar and SelectAttr are the projected column, e.g. u1 and M.
	// SelectVar is empty when the projection is unqualified.
	SelectVar  string
	SelectAttr string
	From       []FromItem
	// MergeLinks are the variable-to-variable equality predicates, e.g.
	// u1.M = u2.M.
	MergeLinks []MergeLink
	// VarConds are the remaining predicates, grouped by the single variable
	// each references (ANDed together when a variable has several).
	VarConds map[string]cond.Cond
}

// MergeLink is an equality between two variables' attributes.
type MergeLink struct {
	LVar, LAttr string
	RVar, RAttr string
}

// Parse parses a fusion-query SQL statement.
func Parse(sql string) (*Query, error) {
	toks, err := cond.Tokens(sql)
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	return q, nil
}

type parser struct {
	toks []cond.Token
	i    int
}

func (p *parser) peek() cond.Token { return p.toks[p.i] }

func (p *parser) next() cond.Token {
	t := p.toks[p.i]
	if t.Kind != cond.TokenEOF {
		p.i++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.Kind != cond.TokenKeyword || t.Text != kw {
		return fmt.Errorf("expected %s at offset %d, got %q", kw, t.Pos, t.Text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.Kind != cond.TokenIdent {
		return "", fmt.Errorf("expected identifier at offset %d, got %q", t.Pos, t.Text)
	}
	return t.Text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{VarConds: map[string]cond.Cond{}}
	v, a, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	q.SelectVar, q.SelectAttr = v, a

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		rel, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		alias := rel
		if p.peek().Kind == cond.TokenIdent {
			alias = p.next().Text
		}
		q.From = append(q.From, FromItem{Relation: rel, Alias: alias})
		if p.peek().Kind == cond.TokenPunct && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}

	if p.peek().Kind == cond.TokenKeyword && p.peek().Text == "WHERE" {
		p.next()
		if err := p.parseWhere(q); err != nil {
			return nil, err
		}
	}
	if t := p.peek(); t.Kind != cond.TokenEOF {
		return nil, fmt.Errorf("trailing input at offset %d: %q", t.Pos, t.Text)
	}
	return q, nil
}

// parseColumnRef parses "alias.attr" or a bare "attr".
func (p *parser) parseColumnRef() (string, string, error) {
	first, err := p.expectIdent()
	if err != nil {
		return "", "", err
	}
	if p.peek().Kind == cond.TokenPunct && p.peek().Text == "." {
		p.next()
		attr, err := p.expectIdent()
		if err != nil {
			return "", "", err
		}
		return first, attr, nil
	}
	return "", first, nil
}

// parseWhere consumes the top-level conjunction, classifying each conjunct
// as a merge link (attr = attr across variables) or a single-variable
// condition.
func (p *parser) parseWhere(q *Query) error {
	for {
		if err := p.parseConjunct(q); err != nil {
			return err
		}
		if p.peek().Kind == cond.TokenKeyword && p.peek().Text == "AND" {
			p.next()
			continue
		}
		return nil
	}
}

// parseConjunct parses one top-level conjunct. A conjunct of the form
// ref = ref is a merge link; anything else is re-parsed as a condition
// expression in which every attribute must be qualified by one variable.
func (p *parser) parseConjunct(q *Query) error {
	start := p.i
	// Try the merge-link shape first: ident[.ident] = ident.ident
	if lv, la, err := p.parseColumnRef(); err == nil {
		if p.peek().Kind == cond.TokenOp && p.peek().Text == "=" {
			save := p.i
			p.next()
			if p.peek().Kind == cond.TokenIdent {
				rStart := p.i
				rv, ra, err := p.parseColumnRef()
				if err == nil && rv != "" {
					q.MergeLinks = append(q.MergeLinks, MergeLink{LVar: lv, LAttr: la, RVar: rv, RAttr: ra})
					return nil
				}
				p.i = rStart
			}
			p.i = save
		}
	}
	p.i = start
	return p.parseVarCond(q)
}

// parseVarCond parses a single-variable condition conjunct: a comparison,
// IN, LIKE, NOT or parenthesized boolean expression whose attribute
// references all name the same variable. The condition is stored with its
// qualifiers stripped.
func (p *parser) parseVarCond(q *Query) error {
	expr, vars, err := p.parseCondOr()
	if err != nil {
		return err
	}
	if len(vars) != 1 {
		return fmt.Errorf("condition %q must reference exactly one query variable, got %d", expr, len(vars))
	}
	var v string
	for name := range vars {
		v = name
	}
	c, err := cond.Parse(expr)
	if err != nil {
		return fmt.Errorf("condition on %s: %w", v, err)
	}
	if prev, ok := q.VarConds[v]; ok {
		q.VarConds[v] = &cond.And{L: prev, R: c}
	} else {
		q.VarConds[v] = c
	}
	return nil
}

// parseCondOr re-lexes one boolean term (stopping at a top-level AND or
// EOF) into an unqualified condition string, collecting the variable names
// used to qualify attributes. Parenthesized sub-expressions may contain
// ANDs; only parenthesis depth zero ANDs terminate the conjunct.
func (p *parser) parseCondOr() (string, map[string]bool, error) {
	var sb strings.Builder
	vars := map[string]bool{}
	depth := 0
	wrote := false
	pendingBetween := 0
	for {
		t := p.peek()
		switch {
		case t.Kind == cond.TokenEOF:
			if depth != 0 {
				return "", nil, fmt.Errorf("unbalanced parentheses in condition at offset %d", t.Pos)
			}
			if !wrote {
				return "", nil, fmt.Errorf("empty condition at offset %d", t.Pos)
			}
			return sb.String(), vars, nil
		case t.Kind == cond.TokenKeyword && t.Text == "AND" && depth == 0 && pendingBetween > 0:
			// This AND separates a BETWEEN's bounds, not two conjuncts.
			pendingBetween--
			p.next()
			sb.WriteString("AND ")
		case t.Kind == cond.TokenKeyword && t.Text == "AND" && depth == 0:
			if !wrote {
				return "", nil, fmt.Errorf("empty condition at offset %d", t.Pos)
			}
			return sb.String(), vars, nil
		case t.Kind == cond.TokenKeyword && t.Text == "BETWEEN":
			pendingBetween++
			p.next()
			sb.WriteString("BETWEEN ")
		case t.Kind == cond.TokenPunct && t.Text == "(":
			depth++
			p.next()
			sb.WriteString("( ")
		case t.Kind == cond.TokenPunct && t.Text == ")":
			if depth == 0 {
				return "", nil, fmt.Errorf("unbalanced ')' at offset %d", t.Pos)
			}
			depth--
			p.next()
			sb.WriteString(") ")
		case t.Kind == cond.TokenIdent:
			// A qualified attribute alias.attr; bare identifiers are
			// rejected so every reference names its variable.
			p.next()
			if p.peek().Kind == cond.TokenPunct && p.peek().Text == "." {
				p.next()
				attr, err := p.expectIdent()
				if err != nil {
					return "", nil, err
				}
				vars[t.Text] = true
				sb.WriteString(attr + " ")
			} else {
				return "", nil, fmt.Errorf("unqualified attribute %q at offset %d (write alias.attr)", t.Text, t.Pos)
			}
		case t.Kind == cond.TokenString:
			p.next()
			sb.WriteString(relation.String(t.Text).String() + " ")
		default:
			p.next()
			sb.WriteString(t.Text + " ")
		}
		wrote = true
	}
}
