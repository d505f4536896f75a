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
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cond: trailing input at offset %d: %q", p.peek().pos, p.peek().text)
	}
	return c, nil
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
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("cond: expected %s at offset %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) parseOr() (Cond, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "OR" {
		p.next()
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
	for p.peek().kind == tokKeyword && p.peek().text == "AND" {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Cond, error) {
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		p.next()
		c, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{C: c}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Cond, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "(":
		p.next()
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		cl := p.next()
		if cl.kind != tokPunct || cl.text != ")" {
			return nil, fmt.Errorf("cond: expected ')' at offset %d", cl.pos)
		}
		return c, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return True{}, nil
	case t.kind == tokIdent:
		return p.parseComparison()
	default:
		return nil, fmt.Errorf("cond: expected condition at offset %d, got %q", t.pos, t.text)
	}
}

func (p *parser) parseComparison() (Cond, error) {
	attr := p.next().text
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
