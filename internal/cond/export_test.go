package cond

import "strings"

// Qualify returns text with u1. written before every identifier token, so
// that a condition over bare attributes becomes its fusion SQL form over
// the variable u1; ok is false when text does not lex.
func Qualify(text string) (qualified string, ok bool) {
	toks, err := lex(nil, text)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	last := 0
	for _, t := range toks {
		if t.kind == tokIdent {
			b.WriteString(text[last:t.pos])
			b.WriteString("u1.")
			last = t.pos
		}
	}
	b.WriteString(text[last:])
	return b.String(), true
}

// ParseSeeds is parseSeeds for the external test package.
var ParseSeeds = parseSeeds
