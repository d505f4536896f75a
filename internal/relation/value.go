// Package relation provides the typed relational substrate the fusion-query
// framework runs on: values, schemas, tuples and in-memory relations with a
// merge-attribute index. The paper (Section 2.1) assumes every source
// wrapper exports a relation over a common set of attributes that includes
// the merge attribute M; this package is that common view.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the common schema.
type Kind int

const (
	// KindString is a UTF-8 string value.
	KindString Kind = iota
	// KindInt is a 64-bit signed integer value.
	KindInt
	// KindFloat is a 64-bit floating point value.
	KindFloat
	// KindBool is a boolean value.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is the empty string.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// String builds a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int builds an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float builds a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool builds a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload; valid only for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; valid only for KindInt.
func (v Value) IntVal() int64 { return v.i }

// BoolVal returns the boolean payload; valid only for KindBool.
func (v Value) BoolVal() bool { return v.b }

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat converts numeric values to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Compare orders two values. Numeric values compare numerically across
// int/float; otherwise both values must have the same kind. It returns
// -1, 0, or +1, and an error on incomparable kinds.
func (v Value) Compare(w Value) (int, error) {
	if v.IsNumeric() && w.IsNumeric() {
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != w.kind {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", v.kind, w.kind)
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < w.s:
			return -1, nil
		case v.s > w.s:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		x, y := 0, 0
		if v.b {
			x = 1
		}
		if w.b {
			y = 1
		}
		return x - y, nil
	default:
		return 0, fmt.Errorf("relation: cannot compare kind %s", v.kind)
	}
}

// Equal reports whether two values are equal under Compare semantics.
func (v Value) Equal(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c == 0
}

// String renders the value as a literal of condition syntax, the one
// renderer every condition shipped as text goes through, so that parsing
// what it prints gives the value back: a string is single-quoted, or
// double-quoted when it holds a single quote (the syntax has no escapes); a
// float is written without an exponent and with a decimal point, so it
// lexes as a number and parses as a float; other kinds use their natural
// literal form.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the literal String renders to dst: a condition's text
// is written, and its length counted, with no string of its own.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindString:
		q := byte('\'')
		if strings.IndexByte(v.s, '\'') >= 0 {
			q = '"'
		}
		dst = append(dst, q)
		dst = append(dst, v.s...)
		return append(dst, q)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.f, 'f', -1, 64)
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			dst = append(dst, ".0"...)
		}
		return dst
	}
	return append(dst, v.Raw()...)
}

// TextLen is len(v.String()), counted without making the string. It
// allocates nothing: the longest text a float has, 5e-324's without an
// exponent and with a sign, fits in maxNumberText bytes.
func (v Value) TextLen() int {
	if v.kind == KindString {
		return len(v.s) + 2
	}
	var buf [maxNumberText]byte
	return len(v.AppendText(buf[:0]))
}

// maxNumberText bounds the text of a value of any kind but a string.
const maxNumberText = 330

// Raw renders the value without quoting, used for wire encoding and for
// merge-attribute items.
func (v Value) Raw() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// ParseRaw is Raw's inverse: the value of kind k that renders as raw. A
// store that keeps values as text (the KV backend, a CSV file) reads them
// back with it.
func ParseRaw(raw string, k Kind) (Value, error) {
	v := String(raw)
	var err error
	switch k {
	case KindInt:
		var i int64
		i, err = strconv.ParseInt(raw, 10, 64)
		v = Int(i)
	case KindFloat:
		var f float64
		f, err = strconv.ParseFloat(raw, 64)
		v = Float(f)
	case KindBool:
		var b bool
		b, err = strconv.ParseBool(raw)
		v = Bool(b)
	}
	if err != nil {
		return Value{}, fmt.Errorf("%q is not a valid %s", raw, k)
	}
	return v, nil
}

// Bytes returns the approximate wire size of the value, used by the network
// cost accounting.
func (v Value) Bytes() int {
	switch v.kind {
	case KindString:
		return len(v.s)
	case KindBool:
		return 1
	default:
		return 8
	}
}

// ParseValue parses a literal: single- or double-quoted strings, integers,
// floats, and the booleans true/false.
func ParseValue(text string) (Value, error) {
	if text == "" {
		return Value{}, fmt.Errorf("relation: empty literal")
	}
	if len(text) >= 2 {
		if (text[0] == '\'' && text[len(text)-1] == '\'') || (text[0] == '"' && text[len(text)-1] == '"') {
			return String(text[1 : len(text)-1]), nil
		}
	}
	switch text {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("relation: cannot parse literal %q", text)
}
