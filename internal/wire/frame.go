package wire

// The frame codec. A frame is one line: a JSON object and its newline. The
// one member that moves in volume, "items", is coded here by hand; every
// other member is encoding/json's, so the bytes on the wire and the meaning
// of any bytes a peer sends are exactly what json.Encoder wrote and
// json.Unmarshal reads (FuzzFrameCodec holds both to that). DESIGN.md
// "Transport" states the contract.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"

	"fusionq/internal/set"
)

const (
	// maxKeptBuffer is the largest per-connection buffer kept between
	// frames. One that grew past it for a large frame is let go afterwards,
	// so a connection's footprint follows its usual frames, not its largest.
	maxKeptBuffer = 64 << 10
	// itemBlock caps one backing block of decoded items. The items of a
	// frame are substrings of such blocks, so an item that outlives its
	// frame's other items pins at most this much.
	itemBlock = 4 << 10
)

// kept is buf emptied for the next frame, or nothing when it grew past
// maxKeptBuffer bytes.
func kept[T any](buf []T) []T {
	if uintptr(cap(buf))*reflect.TypeFor[T]().Size() > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}

// frame is what Request and Response have in common for the codec.
type frame interface{ itemsField() *[]string }

func (r *Request) itemsField() *[]string  { return &r.Items }
func (r *Response) itemsField() *[]string { return &r.Items }

// frameReader reads frames off one connection.
type frameReader struct {
	br *bufio.Reader
	// spill gathers a frame longer than br's buffer; residue holds a frame
	// without its items member for encoding/json; lits holds the bounds of
	// the items' literals from the pass that finds them to the one that
	// copies them.
	spill, residue []byte
	lits           []literal
	// lend has the items of the frames read land in buffers from
	// set.GetBatch; after each read, lent is the one holding them (nil when
	// none does), for the caller to take and give back.
	lend bool
	lent *[]string
}

// next returns the next line that is not blank, without its meaning checked.
// Every byte consumed, terminators and blank lines included, is charged to
// *budget, and a line that would overdraw it fails with ErrFrameTooLarge
// before it is buffered. Bytes a peer leaves unterminated before hanging up
// are its last line. The line is valid until the next call.
func (r *frameReader) next(budget *int) ([]byte, error) {
	line := r.spill[:0]
	for {
		part, err := r.br.ReadSlice('\n')
		if len(part) > *budget {
			return nil, ErrFrameTooLarge
		}
		*budget -= len(part)
		if err == bufio.ErrBufferFull {
			line = append(line, part...)
			continue
		}
		if len(line) > 0 {
			line = append(line, part...)
			part = line
		}
		if err != nil && (err != io.EOF || len(part) == 0) {
			return nil, err
		}
		if skipSpace(part, 0) == len(part) {
			if err != nil {
				return nil, err
			}
			line = line[:0]
			continue
		}
		r.spill = kept(line)
		return part, nil
	}
}

// taken hands over a pooled buffer holding items, the items of the frame
// just read: the one decode lent, or, when encoding/json decoded them, a
// copy. Nil when the frame had none.
func (r *frameReader) taken(items []string) *[]string {
	p := r.lent
	r.lent = nil
	if p == nil && len(items) > 0 {
		p = set.GetBatch(len(items))
		*p = append(*p, items...)
	}
	return p
}

// read decodes the next frame into v, charging its bytes to *budget.
func (r *frameReader) read(v frame, budget *int) error {
	line, err := r.next(budget)
	if err != nil {
		return err
	}
	err = r.decode(line, v)
	r.residue, r.lits = kept(r.residue), kept(r.lits)
	return err
}

// decode is json.Unmarshal(line, v) with the items array decoded by hand.
// When the top-level object carries one member named exactly "items" and
// its value is an array of string literals, the array is decoded here and
// the object without that member (the residue, built in r's scratch) goes
// to encoding/json. Anything else — another spelling json would fold onto
// the field, a second such member, a key with an escape, null, a number
// among the items, a line the walker cannot follow — goes to encoding/json
// whole, so its semantics hold by construction. One residue is not worth
// the trip: a response that besides its items has only a plain qid and
// more, which is every chunk of a transfer but the last, is read here
// entirely. The line is at most MaxFrameBytes long.
func (r *frameReader) decode(line []byte, v frame) error {
	r.lent = nil
	m, ok := findItems(line, r.lits[:0])
	r.lits = m.lits
	if !ok {
		return json.Unmarshal(line, v)
	}
	var items []string
	if r.lend && len(m.lits) > 0 {
		r.lent = set.GetBatch(len(m.lits))
		items = (*r.lent)[:len(m.lits)]
		*r.lent = items
	} else {
		items = make([]string, len(m.lits))
	}
	if !fillItems(items, line, m.lits, m.size) {
		set.PutBatch(r.lent)
		r.lent = nil
		return json.Unmarshal(line, v)
	}
	if resp, isResp := v.(*Response); isResp && m.chunk {
		if m.qid != nil {
			resp.QueryID = string(m.qid)
		}
		if m.more != nil {
			resp.More = m.more[0] == 't'
		}
		resp.Items = items
		return nil
	}
	r.residue = append(append(r.residue[:0], line[:m.start]...), line[m.end:]...)
	if err := json.Unmarshal(r.residue, v); err != nil {
		return err
	}
	*v.itemsField() = items
	return nil
}

// itemsMember locates a hand-decodable items member in a line.
type itemsMember struct {
	// line[:start] + line[end:] is the residue: the member goes with the
	// comma before it, or the one after it when it is the first.
	start, end int
	// lits are the array's literals and size the bytes of those that can be
	// copied as they stand.
	lits []literal
	size int
	// chunk says the other members are at most a qid that is a plain string
	// (its bytes) and a more that is true or false (the literal); the last
	// of each counts, as it does for encoding/json.
	chunk     bool
	qid, more []byte
}

// literal is one string literal of an items array: its body is
// line[at:end], and plain says those bytes are the string. A line is at
// most MaxFrameBytes long, so an offset fits 32 bits.
type literal struct {
	at, end int32
	plain   bool
}

// findItems walks the top-level object of line, recording the items'
// literals onto lits. It validates only what it needs to be sure where the
// members are: any line it cannot follow is reported as not found and left
// to encoding/json, and the residue keeps every byte the walker skipped
// leniently, so a malformed line fails there.
func findItems(line []byte, lits []literal) (m itemsMember, found bool) {
	m.lits = lits
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return m, false
	}
	i = skipSpace(line, i+1)
	m.chunk = true
	comma := -1 // the comma before the current member
	for {
		key := i
		n, plain := scanString(line, i)
		if n == 0 || !plain {
			return m, false
		}
		name := line[i+1 : i+n-1]
		i = skipSpace(line, i+n)
		if i == len(line) || line[i] != ':' {
			return m, false
		}
		i = skipSpace(line, i+1)
		isItems := string(name) == "items"
		switch {
		case isItems && !found:
			found = true
			if i, m.lits, m.size = scanItems(line, i, m.lits); i == 0 {
				return m, false
			}
		case isItems || bytes.EqualFold(name, []byte("items")):
			return m, false
		default:
			val := i
			if i = skipValue(line, i); i == 0 {
				return m, false
			}
			n, plain := scanString(line, val)
			switch lit := line[val:i]; {
			case string(name) == "qid" && plain && n == len(lit):
				m.qid = lit[1 : n-1]
			case string(name) == "more" && (string(lit) == "true" || string(lit) == "false"):
				m.more = lit
			default:
				m.chunk = false
			}
		}
		end := i
		i = skipSpace(line, i)
		if i == len(line) || (line[i] != ',' && line[i] != '}') {
			return m, false
		}
		if isItems {
			switch {
			case comma >= 0:
				m.start, m.end = comma, end
			case line[i] == ',':
				m.start, m.end = key, i+1
			default:
				m.start, m.end = key, end
			}
		}
		if line[i] == '}' {
			return m, found && skipSpace(line, i+1) == len(line)
		}
		comma = i
		i = skipSpace(line, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// Byte classes of a JSON string: inString bytes stand for themselves in a
// literal read off the wire, verbatim bytes are those json.Marshal, which
// escapes for HTML, writes as they stand.
var inString, verbatim = func() (in, out [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		in[c] = c != '"' && c != '\\'
		out[c] = in[c] && c != '<' && c != '>' && c != '&' && c != 0x7f
	}
	return in, out
}()

// scanString measures the string literal at b[i:], quotes included; zero
// means there is none. plain says its bytes between the quotes are the
// string: no escape, nothing outside ASCII.
func scanString(b []byte, i int) (n int, plain bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	plain = true
	for j := i + 1; ; {
		for j < len(b) && inString[b[j]] {
			j++
		}
		if j >= len(b) {
			return 0, false
		}
		switch c := b[j]; {
		case c == '"':
			return j + 1 - i, plain
		case c == '\\':
			plain = false
			j += 2
		case c < 0x20:
			return 0, false
		default:
			plain = false
			j++
		}
	}
}

// skipValue returns the index after the value at b[i:], zero when there is
// none. Containers are skipped by depth and scalars up to the next
// delimiter: what they hold is encoding/json's to judge.
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return 0
	}
	switch b[i] {
	case '"':
		n, _ := scanString(b, i)
		if n == 0 {
			return 0
		}
		return i + n
	case '{', '[':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				n, _ := scanString(b, i)
				if n == 0 {
					return 0
				}
				i += n - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return 0
	}
	start := i
	for i < len(b) && !strings.ContainsRune(",}] \n\t\r", rune(b[i])) {
		i++
	}
	if i == start {
		return 0
	}
	return i
}

// scanItems is the one pass over the array at b[i:]: it appends every
// literal's bounds to lits and returns the index after the closing bracket
// (zero unless every element is a string literal) and the bytes of the
// plain literals. The common literal, a quote, bytes that stand for
// themselves and a quote, is read by the loop here; any other is
// scanString's.
func scanItems(b []byte, i int, lits []literal) (end int, _ []literal, size int) {
	if i >= len(b) || b[i] != '[' {
		return 0, lits, 0
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, lits, 0
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, lits, 0
		}
		j := i + 1
		for j < len(b) && inString[b[j]] {
			j++
		}
		plain := true
		if j == len(b) || b[j] != '"' {
			var n int
			if n, plain = scanString(b, i); n == 0 {
				return 0, lits, 0
			}
			j = i + n - 1
		}
		lits = append(lits, literal{at: int32(i + 1), end: int32(j), plain: plain})
		if plain {
			size += j - i - 1
		}
		i = skipSpace(b, j+1)
		if i == len(b) {
			return 0, lits, 0
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, lits, size
		default:
			return 0, lits, 0
		}
	}
}

// fillItems copies the literals scanItems recorded in line into items, one
// element a literal, scanning none of them again: plain items are
// substrings of blocks of at most itemBlock bytes (an item larger than that
// has a block of its own), and a literal with an escape or a byte outside
// ASCII is encoding/json's, which may refuse it.
func fillItems(items []string, line []byte, lits []literal, size int) bool {
	var block strings.Builder
	for k, lit := range lits {
		if !lit.plain {
			if json.Unmarshal(line[lit.at-1:lit.end+1], &items[k]) != nil {
				return false
			}
			continue
		}
		body := line[lit.at:lit.end]
		if len(body) > block.Cap()-block.Len() {
			block.Reset()
			block.Grow(max(len(body), min(size, itemBlock)))
		}
		at := block.Len()
		block.Write(body)
		items[k] = block.String()[at:]
		size -= len(body)
	}
	return true
}

// The encoder marshals the frame with a one-item stand-in for its items and
// puts the real array in the stand-in's place. The marker cannot occur
// earlier in the line than the member itself: the members before it are
// strings, and a quote inside a JSON string is escaped.
var (
	itemsStandIn = []string{""}
	itemsMarker  = []byte(`"items":[""]`)
)

// appendFrame appends v's line, newline included, to dst: the bytes
// json.Encoder writes for it. A response's items go out as its Encoded
// array when it carries one.
func appendFrame(dst []byte, v frame) ([]byte, error) {
	field := v.itemsField()
	items := *field
	if len(items) > 0 {
		*field = itemsStandIn
	}
	line, err := json.Marshal(v)
	*field = items
	if err != nil {
		return dst, err
	}
	if len(items) > 0 {
		at := bytes.Index(line, itemsMarker) + len(`"items":[`)
		dst = append(dst, line[:at]...)
		if resp, ok := v.(*Response); ok && resp.Encoded != nil {
			dst = append(dst, resp.Encoded.body...)
		} else {
			for i, item := range items {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendItem(dst, item)
			}
		}
		line = line[at+len(`""`):]
	}
	return append(append(dst, line...), '\n'), nil
}

// appendItem appends item as a JSON string literal. An item json.Marshal
// would write byte for byte between quotes is written so; any other is
// json.Marshal's.
func appendItem(dst []byte, item string) []byte {
	if !isVerbatim(item) {
		lit, _ := json.Marshal(item) // a string always marshals
		return append(dst, lit...)
	}
	return append(append(append(dst, '"'), item...), '"')
}

// isVerbatim says json.Marshal writes item byte for byte between quotes.
func isVerbatim(item string) bool {
	for i := 0; i < len(item); i++ {
		if !verbatim[item[i]] {
			return false
		}
	}
	return true
}

// EncodedItems is an item array encoded once for the wire, to be written
// any number of times: its body is exactly the array's body, the literals
// and the commas between them (`"a","b"`), and its items are substrings of
// that body, between the quotes, except that an item not written byte for
// byte (isVerbatim) keeps a copy of its own. So it holds nothing of what its
// items were cut from, and its body is as long as what it holds, give or
// take those copies.
type EncodedItems struct {
	body  string
	items []string
}

// EncodeItems encodes items as appendFrame writes them: each item's bytes
// are read once to tell whether json.Marshal would escape it and copied
// once into the body.
func EncodeItems(items []string) EncodedItems {
	// own holds an escaped item's literal until the body is built.
	own := make([]string, len(items))
	size := max(len(items)-1, 0)
	for i, it := range items {
		if isVerbatim(it) {
			size += len(it) + 2
			continue
		}
		lit, _ := json.Marshal(it) // a string always marshals
		own[i] = string(lit)
		size += len(lit)
	}
	var b strings.Builder
	b.Grow(size)
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		if own[i] != "" {
			b.WriteString(own[i])
			continue
		}
		b.WriteByte('"')
		b.WriteString(it)
		b.WriteByte('"')
	}
	body, at := b.String(), 0
	for i, it := range items {
		if own[i] != "" {
			at += len(own[i]) + 1
			own[i] = strings.Clone(it)
			continue
		}
		own[i] = body[at+1 : at+1+len(it)]
		at += len(it) + 3
	}
	return EncodedItems{body: body, items: own}
}

// Items returns the items the array encodes, in order. The slice is the
// array's own and must not be modified.
func (e EncodedItems) Items() []string { return e.items }

// Len returns the length of the array's body in bytes.
func (e EncodedItems) Len() int { return len(e.body) }
