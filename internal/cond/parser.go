package cond

import (
	"fmt"

	"fusionq/internal/relation"
)

// Parse parses a condition such as
//
//	V = 'dui' AND (D >= 1993 OR D < 1980) AND State IN ('CA', 'NV')
//
// Precedence, lowest to highest: OR, AND, NOT, comparison.
func Parse(input string) (Cond, error) {
	// The tokens of a usual condition fit in an array on this stack; a
	// longer one grows onto the heap.
	var buf [parseTokens]token
	toks, err := lex(buf[:0], input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return c, p.end()
}

// MustParse is Parse that panics on error, for literals in tests, examples
// and workload builders.
func MustParse(input string) Cond {
	c, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return c
}

// parseTokens is the room Parse makes on its stack for tokens: an IN list
// of a dozen values.
const parseTokens = 32

type parser struct {
	toks []token
	i    int
	// alias, when set, makes every attribute alias.attr and is told each
	// alias; Statement.Cond sets it.
	alias func(string)
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// accept consumes the next token if it is the keyword, operator or
// punctuation text.
func (p *parser) accept(text string) bool {
	t := p.peek()
	if (t.kind == tokKeyword || t.kind == tokOp || t.kind == tokPunct) && t.text == text {
		p.i++
		return true
	}
	return false
}

// expected reports that the next token is not what.
func (p *parser) expected(what string) error {
	t := p.peek()
	return fmt.Errorf("cond: expected %s at offset %d, got %q", what, t.pos, t.text)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.accept(kw) {
		return p.expected(kw)
	}
	return nil
}

func (p *parser) end() error {
	if t := p.peek(); t.kind != tokEOF {
		return fmt.Errorf("cond: trailing input at offset %d: %q", t.pos, t.text)
	}
	return nil
}

func (p *parser) parseOr() (Cond, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Cond, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Cond, error) {
	if p.accept("NOT") {
		c, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{C: c}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Cond, error) {
	switch {
	case p.accept("("):
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.expected("')'")
		}
		return c, nil
	case p.accept("TRUE"):
		return True{}, nil
	case p.peek().kind == tokIdent:
		return p.parseComparison()
	default:
		return nil, p.expected("condition")
	}
}

// attr reads the attribute that starts a comparison, written alias.attr
// when p.alias is set.
func (p *parser) attr() (string, error) {
	t := p.next()
	if p.alias == nil {
		return t.text, nil
	}
	if !p.accept(".") {
		return "", fmt.Errorf("cond: unqualified attribute %q at offset %d (write alias.attr)", t.text, t.pos)
	}
	if p.peek().kind != tokIdent {
		return "", p.expected("attribute")
	}
	p.alias(t.text)
	return p.next().text, nil
}

func (p *parser) parseComparison() (Cond, error) {
	attr, err := p.attr()
	if err != nil {
		return nil, err
	}
	t := p.next()
	switch {
	case t.kind == tokOp:
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		op, err := parseOp(t.text)
		if err != nil {
			return nil, err
		}
		return &Compare{Attr: attr, Op: op, Lit: lit}, nil
	case t.kind == tokKeyword && t.text == "LIKE":
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if lit.Kind() != relation.KindString {
			return nil, fmt.Errorf("cond: LIKE pattern must be a string")
		}
		return &Compare{Attr: attr, Op: OpLike, Lit: lit}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		// BETWEEN is sugar for the closed range.
		return &And{
			L: &Compare{Attr: attr, Op: OpGe, Lit: lo},
			R: &Compare{Attr: attr, Op: OpLe, Lit: hi},
		}, nil
	case t.kind == tokKeyword && t.text == "NOT":
		if err := p.expectKeyword("IN"); err != nil {
			return nil, err
		}
		in, err := p.parseInList(attr)
		if err != nil {
			return nil, err
		}
		return &Not{C: in}, nil
	case t.kind == tokKeyword && t.text == "IN":
		return p.parseInList(attr)
	default:
		return nil, fmt.Errorf("cond: expected operator after %q at offset %d", attr, t.pos)
	}
}

func (p *parser) parseInList(attr string) (Cond, error) {
	t := p.next()
	if t.kind != tokPunct || t.text != "(" {
		return nil, fmt.Errorf("cond: expected '(' after IN at offset %d", t.pos)
	}
	var vals []relation.Value
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		t = p.next()
		if t.kind == tokPunct && t.text == "," {
			continue
		}
		if t.kind == tokPunct && t.text == ")" {
			break
		}
		return nil, fmt.Errorf("cond: expected ',' or ')' in IN list at offset %d", t.pos)
	}
	return &In{Attr: attr, Vals: vals}, nil
}

func (p *parser) parseLiteral() (relation.Value, error) {
	t := p.next()
	switch t.kind {
	case tokString:
		return relation.String(t.text), nil
	case tokNumber:
		return relation.ParseValue(t.text)
	case tokKeyword:
		switch t.text {
		case "TRUE":
			return relation.Bool(true), nil
		case "FALSE":
			return relation.Bool(false), nil
		}
	}
	return relation.Value{}, fmt.Errorf("cond: expected literal at offset %d, got %q", t.pos, t.text)
}

func parseOp(text string) (Op, error) {
	switch text {
	case "=":
		return OpEq, nil
	case "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("cond: unknown operator %q", text)
	}
}

// Statement reads a statement that embeds conditions, such as the fusion
// SQL of internal/sqlparse, as one token stream: the caller reads the
// statement's own words with Accept and Ident, and hands each condition to
// Cond, so this package alone knows the condition grammar and every error
// gives an offset in the statement's text.
type Statement struct{ p parser }

// NewStatement lexes text.
func NewStatement(text string) (*Statement, error) {
	toks, err := lex(nil, text)
	if err != nil {
		return nil, err
	}
	return &Statement{parser{toks: toks}}, nil
}

// Accept consumes the next token if it is the keyword, operator or
// punctuation text (keywords upper case).
func (s *Statement) Accept(text string) bool { return s.p.accept(text) }

// Ident consumes the next token if it is an identifier and returns it.
func (s *Statement) Ident() (string, bool) {
	if s.p.peek().kind != tokIdent {
		return "", false
	}
	return s.p.next().text, true
}

// Expected reports that the next token is not what.
func (s *Statement) Expected(what string) error { return s.p.expected(what) }

// Mark returns the reading position, for Reset.
func (s *Statement) Mark() int { return s.p.i }

// Reset returns to a position Mark returned.
func (s *Statement) Reset(mark int) { s.p.i = mark }

// End reports input left after the statement.
func (s *Statement) End() error { return s.p.end() }

// Cond reads a condition: a whole one (OR binds loosest), or with term
// only one operand of AND, so that the caller reads the ANDs between
// terms. Every attribute is written alias.attr; alias is told each alias
// and the condition holds the bare attribute names.
func (s *Statement) Cond(term bool, alias func(string)) (Cond, error) {
	s.p.alias = alias
	if term {
		return s.p.parseNot()
	}
	return s.p.parseOr()
}
