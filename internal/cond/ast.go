// Package cond implements the condition language of fusion queries. Each
// condition c_i (Section 2.2) refers to the attributes of a single U
// variable and is evaluable by every source wrapper. The package provides
// an AST, a parser for a small SQL-style predicate syntax
// ("V = 'dui' AND D >= 1993"), and an evaluator against schema-typed tuples.
package cond

import (
	"fmt"
	"strconv"

	"fusionq/internal/relation"
)

// Op is a comparison operator.
type Op int

// Comparison operators supported in conditions.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
)

// String renders the operator in condition syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Cond is a boolean predicate over a single tuple.
type Cond interface {
	// Eval evaluates the condition against tuple t typed by schema.
	Eval(schema *relation.Schema, t relation.Tuple) (bool, error)
	// Check verifies the condition is well typed against schema.
	Check(schema *relation.Schema) error
	// Bind resolves every attribute to its column of schema once and
	// returns the kernel that scans run over an ordered view's columns
	// (bound.go). It fails exactly when Check(schema) fails, with the same
	// error; the kernel marks the rows on which Eval(schema, row) is true,
	// and Eval raises no error on a row of a relation that Check passed.
	Bind(schema *relation.Schema) (Pred, error)
	// String renders the condition in parseable syntax.
	String() string
}

// Compare is an "attr op literal" leaf. Like every node, it is not changed
// once made: Bind keeps what it binds in the node (bound.go).
type Compare struct {
	Attr string
	Op   Op
	Lit  relation.Value

	bound leafMemo
}

// Eval implements Cond.
func (c *Compare) Eval(schema *relation.Schema, t relation.Tuple) (bool, error) {
	i, ok := schema.Index(c.Attr)
	if !ok {
		return false, fmt.Errorf("cond: unknown attribute %q", c.Attr)
	}
	return c.test(t[i])
}

// test applies the comparison to the attribute's value.
func (c *Compare) test(v relation.Value) (bool, error) {
	if c.Op == OpLike {
		if v.Kind() != relation.KindString || c.Lit.Kind() != relation.KindString {
			return false, fmt.Errorf("cond: LIKE requires string operands")
		}
		return likeMatch(c.Lit.Str(), v.Str()), nil
	}
	cmp, err := v.Compare(c.Lit)
	if err != nil {
		return false, fmt.Errorf("cond: %s: %w", c.Attr, err)
	}
	switch c.Op {
	case OpEq:
		return cmp == 0, nil
	case OpNe:
		return cmp != 0, nil
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("cond: bad operator %v", c.Op)
	}
}

// Check implements Cond.
func (c *Compare) Check(schema *relation.Schema) error {
	k, ok := schema.KindOf(c.Attr)
	if !ok {
		return fmt.Errorf("cond: unknown attribute %q", c.Attr)
	}
	if c.Op < OpEq || c.Op > OpLike {
		return fmt.Errorf("cond: bad operator %v", c.Op)
	}
	if c.Op == OpLike {
		if k != relation.KindString || c.Lit.Kind() != relation.KindString {
			return fmt.Errorf("cond: LIKE on %q requires string operands", c.Attr)
		}
		return nil
	}
	numOK := (k == relation.KindInt || k == relation.KindFloat) && c.Lit.IsNumeric()
	if k != c.Lit.Kind() && !numOK {
		return fmt.Errorf("cond: attribute %q is %s but literal is %s", c.Attr, k, c.Lit.Kind())
	}
	return nil
}

// String implements Cond.
func (c *Compare) String() string { return text(c) }

// In is an "attr IN (v1, v2, ...)" leaf.
type In struct {
	Attr string
	Vals []relation.Value

	bound leafMemo
}

// Eval implements Cond.
func (c *In) Eval(schema *relation.Schema, t relation.Tuple) (bool, error) {
	i, ok := schema.Index(c.Attr)
	if !ok {
		return false, fmt.Errorf("cond: unknown attribute %q", c.Attr)
	}
	return c.test(t[i]), nil
}

// test reports whether the attribute's value is in the list.
func (c *In) test(v relation.Value) bool {
	for _, w := range c.Vals {
		if v.Equal(w) {
			return true
		}
	}
	return false
}

// Check implements Cond.
func (c *In) Check(schema *relation.Schema) error {
	k, ok := schema.KindOf(c.Attr)
	if !ok {
		return fmt.Errorf("cond: unknown attribute %q", c.Attr)
	}
	for _, v := range c.Vals {
		numOK := (k == relation.KindInt || k == relation.KindFloat) && v.IsNumeric()
		if k != v.Kind() && !numOK {
			return fmt.Errorf("cond: IN list for %q mixes %s with %s", c.Attr, k, v.Kind())
		}
	}
	return nil
}

// String implements Cond.
func (c *In) String() string { return text(c) }

// And is a conjunction of two conditions.
type And struct{ L, R Cond }

// Eval implements Cond.
func (c *And) Eval(schema *relation.Schema, t relation.Tuple) (bool, error) {
	l, err := c.L.Eval(schema, t)
	if err != nil || !l {
		return false, err
	}
	return c.R.Eval(schema, t)
}

// Check implements Cond.
func (c *And) Check(schema *relation.Schema) error {
	if err := c.L.Check(schema); err != nil {
		return err
	}
	return c.R.Check(schema)
}

// String implements Cond.
func (c *And) String() string { return text(c) }

// Or is a disjunction of two conditions.
type Or struct{ L, R Cond }

// Eval implements Cond.
func (c *Or) Eval(schema *relation.Schema, t relation.Tuple) (bool, error) {
	l, err := c.L.Eval(schema, t)
	if err != nil || l {
		return l, err
	}
	return c.R.Eval(schema, t)
}

// Check implements Cond.
func (c *Or) Check(schema *relation.Schema) error {
	if err := c.L.Check(schema); err != nil {
		return err
	}
	return c.R.Check(schema)
}

// String implements Cond.
func (c *Or) String() string { return text(c) }

// Not negates a condition.
type Not struct{ C Cond }

// Eval implements Cond.
func (c *Not) Eval(schema *relation.Schema, t relation.Tuple) (bool, error) {
	v, err := c.C.Eval(schema, t)
	return !v, err
}

// Check implements Cond.
func (c *Not) Check(schema *relation.Schema) error { return c.C.Check(schema) }

// String implements Cond.
func (c *Not) String() string { return text(c) }

// True is the always-true condition; loading a source (lq) is a selection
// with this condition.
type True struct{}

// Eval implements Cond.
func (True) Eval(*relation.Schema, relation.Tuple) (bool, error) { return true, nil }

// Check implements Cond.
func (True) Check(*relation.Schema) error { return nil }

// String implements Cond.
func (True) String() string { return "TRUE" }

// text renders c as String does, in a buffer of exactly its length.
func text(c Cond) string {
	return string(AppendText(make([]byte, 0, TextLen(c)), c))
}

// TextLen is len(c.String()), counted without rendering: what a condition
// shipped as text weighs in a request (source.Instrumented charges it on
// every exchange). It allocates nothing.
func TextLen(c Cond) int {
	switch c := c.(type) {
	case *Compare:
		return len(c.Attr) + 1 + c.Op.textLen() + 1 + c.Lit.TextLen()
	case *In:
		n := len(c.Attr) + len(" IN (") + len(")")
		for i, v := range c.Vals {
			if i > 0 {
				n += len(", ")
			}
			n += v.TextLen()
		}
		return n
	case *And:
		return operandLen(c.L) + len(" AND ") + operandLen(c.R)
	case *Or:
		return operandLen(c.L) + len(" OR ") + operandLen(c.R)
	case *Not:
		return len("NOT ") + operandLen(c.C)
	case True:
		return len("TRUE")
	}
	return len(c.String())
}

// textLen is len(o.String()), counted without formatting an operator
// outside the syntax.
func (o Op) textLen() int {
	if o >= OpEq && o <= OpLike {
		return len(o.String())
	}
	var buf [24]byte
	return len("Op()") + len(strconv.AppendInt(buf[:0], int64(o), 10))
}

// operandLen is TextLen of an operand of AND, OR or NOT.
func operandLen(c Cond) int {
	switch c.(type) {
	case *And, *Or:
		return len("(") + TextLen(c) + len(")")
	}
	return TextLen(c)
}

// AppendText appends c's text, c.String(), to dst: the one renderer of the
// condition syntax. An operand that is itself a conjunction or disjunction
// is parenthesized. It allocates only to grow dst.
func AppendText(dst []byte, c Cond) []byte {
	switch c := c.(type) {
	case *Compare:
		dst = append(dst, c.Attr...)
		dst = append(dst, ' ')
		dst = append(dst, c.Op.String()...)
		dst = append(dst, ' ')
		return c.Lit.AppendText(dst)
	case *In:
		dst = append(dst, c.Attr...)
		dst = append(dst, " IN ("...)
		for i, v := range c.Vals {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = v.AppendText(dst)
		}
		return append(dst, ')')
	case *And:
		dst = appendOperand(dst, c.L)
		dst = append(dst, " AND "...)
		return appendOperand(dst, c.R)
	case *Or:
		dst = appendOperand(dst, c.L)
		dst = append(dst, " OR "...)
		return appendOperand(dst, c.R)
	case *Not:
		dst = append(dst, "NOT "...)
		return appendOperand(dst, c.C)
	case True:
		return append(dst, "TRUE"...)
	}
	return append(dst, c.String()...)
}

// appendOperand appends an operand of AND, OR or NOT.
func appendOperand(dst []byte, c Cond) []byte {
	switch c.(type) {
	case *And, *Or:
		dst = append(dst, '(')
		dst = AppendText(dst, c)
		return append(dst, ')')
	}
	return AppendText(dst, c)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune).
func likeMatch(pattern, s string) bool {
	p, t := []rune(pattern), []rune(s)
	// Iterative matcher with backtracking over the last %.
	pi, ti := 0, 0
	star, mark := -1, 0
	for ti < len(t) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == t[ti]):
			pi++
			ti++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = ti
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			ti = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Attrs returns the set of attribute names referenced by the condition, in
// no particular order. The fusion-query validator uses it to check that a
// condition touches only the attributes of one U variable.
func Attrs(c Cond) []string {
	seen := map[string]bool{}
	var walk func(Cond)
	walk = func(c Cond) {
		switch v := c.(type) {
		case *Compare:
			seen[v.Attr] = true
		case *In:
			seen[v.Attr] = true
		case *And:
			walk(v.L)
			walk(v.R)
		case *Or:
			walk(v.L)
			walk(v.R)
		case *Not:
			walk(v.C)
		case True:
		}
	}
	walk(c)
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	return out
}
