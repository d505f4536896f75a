package cond

import (
	"sync/atomic"
	"unicode/utf8"

	"fusionq/internal/relation"
)

// This file is the bound form of a condition: a kernel over the column
// vectors of an ordered view. A leaf is one loop over one vector, specialised
// to the column's kind and the operator; And, Or and Not combine the match
// vectors of their operands. Nothing in it is called per row, returns an
// error or copies a relation.Value: Check has established everything a row
// could have got wrong. Eval (ast.go) is the reference it is held to, row by
// row, by TestBoundMatchesEval and FuzzBoundMatchesEval.

// Pred is a condition bound to one schema.
type Pred interface {
	// Match sets out[i] to whether row lo+i of v satisfies the condition,
	// for every i below len(out). v must be an ordered view of the schema
	// the condition was bound to. An And or Or keeps its scratch vectors
	// between calls, so its Pred serves one goroutine; a leaf's keeps none
	// and is shared, binding the leaf again returning it (leafMemo).
	Match(v *relation.Ordered, lo int, out []bool)
}

// Bind implements Cond.
func (c *Compare) Bind(schema *relation.Schema) (Pred, error) {
	if err := c.Check(schema); err != nil {
		return nil, err
	}
	return c.bound.bind(schema, c.Attr, c.leaf), nil
}

// leaf is the kernel of c over column col of the kind given.
func (c *Compare) leaf(col int, kind relation.Kind) Pred {
	switch {
	case c.Op == OpLike:
		return &likeLeaf{col: col, pattern: []rune(c.Lit.Str())}
	case kind == relation.KindInt:
		return &intLeaf{col: col, op: c.Op, lit: c.Lit.AsFloat()}
	case kind == relation.KindFloat:
		return &floatLeaf{col: col, op: c.Op, lit: c.Lit.AsFloat()}
	case kind == relation.KindString:
		return &stringLeaf{col: col, op: c.Op, lit: c.Lit.Str()}
	default:
		// Value.Compare orders false before true.
		lit := 0
		if c.Lit.BoolVal() {
			lit = 1
		}
		return &boolLeaf{col: col, onTrue: c.Op.holds(1 - lit), onFalse: c.Op.holds(0 - lit)}
	}
}

// Bind implements Cond.
func (c *In) Bind(schema *relation.Schema) (Pred, error) {
	if err := c.Check(schema); err != nil {
		return nil, err
	}
	return c.bound.bind(schema, c.Attr, c.leaf), nil
}

// leaf is the kernel of c over column col of the kind given.
func (c *In) leaf(col int, kind relation.Kind) Pred {
	switch kind {
	case relation.KindInt, relation.KindFloat:
		lits := make([]float64, len(c.Vals))
		for i, v := range c.Vals {
			lits[i] = v.AsFloat()
		}
		if kind == relation.KindInt {
			return &intIn{col: col, lits: lits}
		}
		return &floatIn{col: col, lits: lits}
	case relation.KindString:
		lits := make([]string, len(c.Vals))
		for i, v := range c.Vals {
			lits[i] = v.Str()
		}
		return &stringIn{col: col, lits: lits}
	default:
		leaf := &boolLeaf{col: col}
		for _, v := range c.Vals {
			leaf.onTrue = leaf.onTrue || v.BoolVal()
			leaf.onFalse = leaf.onFalse || !v.BoolVal()
		}
		return leaf
	}
}

// leafMemo is the kernel a leaf was last bound to, kept in the node. A
// leaf's kernel is immutable (it keeps no scratch), so every source that
// binds the node, on any goroutine, and every later query of a plan that
// holds it, share one; And and Or keep scratch, so they bind afresh each
// time, over their operands' shared leaves. The kernel is keyed by the
// column and kind it reads, which are all a schema decides of it: a schema
// that puts the attribute elsewhere binds a new one, which replaces it.
type leafMemo struct{ p atomic.Pointer[boundLeaf] }

type boundLeaf struct {
	col  int
	kind relation.Kind
	pred Pred
}

// bind is a leaf's kernel over attr's column of schema, which Check has
// found: the kept one if it reads that column of that kind, else a new one
// from leaf, kept in its place.
func (m *leafMemo) bind(schema *relation.Schema, attr string, leaf func(col int, kind relation.Kind) Pred) Pred {
	col, _ := schema.Index(attr)
	kind := schema.Columns()[col].Kind
	if b := m.p.Load(); b != nil && b.col == col && b.kind == kind {
		return b.pred
	}
	pred := leaf(col, kind)
	m.p.Store(&boundLeaf{col: col, kind: kind, pred: pred})
	return pred
}

// Bind implements Cond.
func (c *And) Bind(schema *relation.Schema) (Pred, error) {
	l, r, err := bindPair(c.L, c.R, schema)
	if err != nil {
		return nil, err
	}
	return &andNode{l: l, r: r}, nil
}

// Bind implements Cond.
func (c *Or) Bind(schema *relation.Schema) (Pred, error) {
	l, r, err := bindPair(c.L, c.R, schema)
	if err != nil {
		return nil, err
	}
	return &orNode{l: l, r: r}, nil
}

// Bind implements Cond.
func (c *Not) Bind(schema *relation.Schema) (Pred, error) {
	p, err := c.C.Bind(schema)
	if err != nil {
		return nil, err
	}
	return notNode{p}, nil
}

// Bind implements Cond.
func (True) Bind(*relation.Schema) (Pred, error) { return allRows{}, nil }

// bindPair binds the operands of a binary node left to right, the order
// Check reports their errors in.
func bindPair(l, r Cond, schema *relation.Schema) (Pred, Pred, error) {
	lp, err := l.Bind(schema)
	if err != nil {
		return nil, nil, err
	}
	rp, err := r.Bind(schema)
	if err != nil {
		return nil, nil, err
	}
	return lp, rp, nil
}

// holds reports whether a comparison that came out as cmp (negative, zero,
// positive) satisfies the operator.
func (o Op) holds(cmp int) bool {
	switch o {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// ---- Leaves ----------------------------------------------------------------

// intLeaf compares an int column with a numeric literal through float64, as
// relation.Value.Compare does: beyond 2^53 neighbouring ints compare equal.
type intLeaf struct {
	col int
	op  Op
	lit float64
}

func (p *intLeaf) Match(v *relation.Ordered, lo int, out []bool) {
	matchNumbers(v.Cols[p.col].Ints[lo:lo+len(out)], p.op, p.lit, out)
}

type floatLeaf struct {
	col int
	op  Op
	lit float64
}

func (p *floatLeaf) Match(v *relation.Ordered, lo int, out []bool) {
	matchNumbers(v.Cols[p.col].Floats[lo:lo+len(out)], p.op, p.lit, out)
}

// matchNumbers is the numeric comparison loop, one per operator. Each is
// written with < and > alone, the two tests Value.Compare makes, so that a
// NaN, which is neither below nor above anything, compares equal to
// everything here as it does there.
func matchNumbers[T int64 | float64](col []T, op Op, lit float64, out []bool) {
	out = out[:len(col)]
	switch op {
	case OpEq:
		for i, x := range col {
			out[i] = !(float64(x) < lit) && !(float64(x) > lit)
		}
	case OpNe:
		for i, x := range col {
			out[i] = float64(x) < lit || float64(x) > lit
		}
	case OpLt:
		for i, x := range col {
			out[i] = float64(x) < lit
		}
	case OpLe:
		for i, x := range col {
			out[i] = !(float64(x) > lit)
		}
	case OpGt:
		for i, x := range col {
			out[i] = float64(x) > lit
		}
	case OpGe:
		for i, x := range col {
			out[i] = !(float64(x) < lit)
		}
	}
}

type stringLeaf struct {
	col int
	op  Op
	lit string
}

func (p *stringLeaf) Match(v *relation.Ordered, lo int, out []bool) {
	col, lit := v.Cols[p.col].Strings[lo:lo+len(out)], p.lit
	out = out[:len(col)]
	switch p.op {
	case OpEq:
		for i, x := range col {
			out[i] = x == lit
		}
	case OpNe:
		for i, x := range col {
			out[i] = x != lit
		}
	case OpLt:
		for i, x := range col {
			out[i] = x < lit
		}
	case OpLe:
		for i, x := range col {
			out[i] = x <= lit
		}
	case OpGt:
		for i, x := range col {
			out[i] = x > lit
		}
	case OpGe:
		for i, x := range col {
			out[i] = x >= lit
		}
	}
}

// boolLeaf is any leaf over a bool column: with the literals fixed, a
// comparison or an IN list is decided by the row's value alone.
type boolLeaf struct {
	col             int
	onTrue, onFalse bool
}

func (p *boolLeaf) Match(v *relation.Ordered, lo int, out []bool) {
	for i, x := range v.Cols[p.col].Bools[lo : lo+len(out)] {
		out[i] = x && p.onTrue || !x && p.onFalse
	}
}

// likeLeaf holds the pattern as runes, converted once at bind.
type likeLeaf struct {
	col     int
	pattern []rune
}

func (p *likeLeaf) Match(v *relation.Ordered, lo int, out []bool) {
	for i, x := range v.Cols[p.col].Strings[lo : lo+len(out)] {
		out[i] = likeRunes(p.pattern, x)
	}
}

// likeRunes is likeMatch over a compiled pattern: it walks s rune by rune in
// place of converting it, and backtracks over the last % the same way.
func likeRunes(p []rune, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		r, size := utf8.DecodeRuneInString(s[si:])
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == r):
			pi++
			si += size
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			_, skip := utf8.DecodeRuneInString(s[mark:])
			mark += skip
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

type intIn struct {
	col  int
	lits []float64
}

func (p *intIn) Match(v *relation.Ordered, lo int, out []bool) {
	matchNumbersIn(v.Cols[p.col].Ints[lo:lo+len(out)], p.lits, out)
}

type floatIn struct {
	col  int
	lits []float64
}

func (p *floatIn) Match(v *relation.Ordered, lo int, out []bool) {
	matchNumbersIn(v.Cols[p.col].Floats[lo:lo+len(out)], p.lits, out)
}

// matchNumbersIn tests membership with matchNumbers' equality.
func matchNumbersIn[T int64 | float64](col []T, lits []float64, out []bool) {
	out = out[:len(col)]
	for i, x := range col {
		in := false
		for _, lit := range lits {
			in = in || !(float64(x) < lit) && !(float64(x) > lit)
		}
		out[i] = in
	}
}

type stringIn struct {
	col  int
	lits []string
}

func (p *stringIn) Match(v *relation.Ordered, lo int, out []bool) {
	for i, x := range v.Cols[p.col].Strings[lo : lo+len(out)] {
		in := false
		for _, lit := range p.lits {
			in = in || x == lit
		}
		out[i] = in
	}
}

// ---- Connectives -----------------------------------------------------------

// andNode evaluates its left operand into out and its right into a scratch
// vector it keeps, then combines them.
type andNode struct {
	l, r    Pred
	scratch []bool
}

func (p *andNode) Match(v *relation.Ordered, lo int, out []bool) {
	p.l.Match(v, lo, out)
	p.scratch = rightOperand(p.r, v, lo, len(out), p.scratch)
	for i, x := range p.scratch[:len(out)] {
		out[i] = out[i] && x
	}
}

type orNode struct {
	l, r    Pred
	scratch []bool
}

func (p *orNode) Match(v *relation.Ordered, lo int, out []bool) {
	p.l.Match(v, lo, out)
	p.scratch = rightOperand(p.r, v, lo, len(out), p.scratch)
	for i, x := range p.scratch[:len(out)] {
		out[i] = out[i] || x
	}
}

// rightOperand evaluates r over n rows into scratch, grown if it is too
// small, and returns scratch. The floor on its size is for a caller that
// matches one group at a time: the groups' sizes creep up.
func rightOperand(r Pred, v *relation.Ordered, lo, n int, scratch []bool) []bool {
	if len(scratch) < n {
		scratch = make([]bool, max(n, 64))
	}
	r.Match(v, lo, scratch[:n])
	return scratch
}

type notNode struct{ p Pred }

func (p notNode) Match(v *relation.Ordered, lo int, out []bool) {
	p.p.Match(v, lo, out)
	for i, x := range out {
		out[i] = !x
	}
}

type allRows struct{}

func (allRows) Match(_ *relation.Ordered, _ int, out []bool) {
	for i := range out {
		out[i] = true
	}
}
