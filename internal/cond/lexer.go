package cond

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexer tokens for the condition and SQL grammars.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString // quoted literal, text holds the unquoted payload
	tokNumber
	tokOp    // = != < <= > >=
	tokPunct // ( ) , . *
	tokKeyword
)

// token is a lexical unit with its position for error reporting.
type token struct {
	kind tokKind
	text string
	pos  int
}

// keywords recognized case-insensitively by the lexer, each upper case and
// mapped to itself: a keyword token's text is the map's string. SELECT, FROM
// and WHERE are the statement words a Statement reads.
var keywords = map[string]string{
	"AND": "AND", "OR": "OR", "NOT": "NOT", "IN": "IN", "LIKE": "LIKE",
	"BETWEEN": "BETWEEN", "TRUE": "TRUE", "FALSE": "FALSE",
	"SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE",
}

// keyword reports whether word is a keyword in any case, and which. An
// ASCII word is upper-cased in a buffer on the stack, so looking one up
// allocates nothing; any other goes through strings.ToUpper, whose Unicode
// case mapping can make a keyword of it.
func keyword(word string) (string, bool) {
	var buf [len("BETWEEN")]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if i == len(buf) {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lex appends input's tokens to toks and returns it. Parse passes an array
// on its stack; a Statement lexes its whole text onto the heap.
func lex(toks []token, input string) ([]token, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("cond: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '-' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9'):
			j := i + 1
			for j < len(input) && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("cond: unexpected '!' at offset %d", i)
			}
		case c == '<':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "<=", i})
				i += 2
			} else if i+1 < len(input) && input[i+1] == '>' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			toks = append(toks, token{tokPunct, input[i : i+1], i})
			i++
		default:
			// An identifier, read as UTF-8 rune by rune.
			r, size := utf8.DecodeRuneInString(input[i:])
			if !isIdentStart(r) {
				return nil, fmt.Errorf("cond: unexpected character %q at offset %d", r, i)
			}
			j := i + size
			for j < len(input) {
				r, size := utf8.DecodeRuneInString(input[j:])
				if !isIdentPart(r) {
					break
				}
				j += size
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{tokKeyword, kw, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
