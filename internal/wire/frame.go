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
	"strings"
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
// maxKeptBuffer.
func kept(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
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
	// without its items member for encoding/json.
	spill, residue []byte
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

// read decodes the next frame into v, charging its bytes to *budget.
func (r *frameReader) read(v frame, budget *int) error {
	line, err := r.next(budget)
	if err != nil {
		return err
	}
	residue, err := decodeFrame(line, v, r.residue)
	r.residue = kept(residue)
	return err
}

// decodeFrame is json.Unmarshal(line, v) with the items array decoded by
// hand. When the top-level object carries one member named exactly "items"
// and its value is an array of string literals, the array is decoded here
// and the object without that member (the residue, built in scratch, which
// is returned for reuse) goes to encoding/json. Anything else — another
// spelling json would fold onto the field, a second such member, a key with
// an escape, null, a number among the items, a line the walker cannot
// follow — goes to encoding/json whole, so its semantics hold by
// construction. One residue is not worth the trip: a response that besides
// its items has only a plain qid and more, which is every chunk of a
// transfer but the last, is read here entirely.
func decodeFrame(line []byte, v frame, scratch []byte) ([]byte, error) {
	m, ok := findItems(line)
	if !ok {
		return scratch, json.Unmarshal(line, v)
	}
	items, ok := fillItems(line[m.open:], m.n, m.size)
	if !ok {
		return scratch, json.Unmarshal(line, v)
	}
	if resp, isResp := v.(*Response); isResp && m.chunk {
		if m.qid != nil {
			resp.QueryID = string(m.qid)
		}
		if m.more != nil {
			resp.More = m.more[0] == 't'
		}
		resp.Items = items
		return scratch, nil
	}
	scratch = append(append(scratch, line[:m.start]...), line[m.end:]...)
	if err := json.Unmarshal(scratch, v); err != nil {
		return scratch, err
	}
	*v.itemsField() = items
	return scratch, nil
}

// itemsMember locates a hand-decodable items member in a line.
type itemsMember struct {
	// line[:start] + line[end:] is the residue: the member goes with the
	// comma before it, or the one after it when it is the first.
	start, end int
	// open is the index of the array's bracket; n counts its literals and
	// size the bytes of those that can be copied as they stand.
	open, n, size int
	// chunk says the other members are at most a qid that is a plain string
	// (its bytes) and a more that is true or false (the literal); the last
	// of each counts, as it does for encoding/json.
	chunk     bool
	qid, more []byte
}

// findItems walks the top-level object of line. It validates only what it
// needs to be sure where the members are: any line it cannot follow is
// reported as not found and left to encoding/json, and the residue keeps
// every byte the walker skipped leniently, so a malformed line fails there.
func findItems(line []byte) (m itemsMember, found bool) {
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
			m.open = i
			if i, m.n, m.size = scanItems(line, i); i == 0 {
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

// scanItems is the first pass over the array at b[i:]: it returns the index
// after the closing bracket (zero unless every element is a string
// literal), the number of literals and the bytes of the plain ones.
func scanItems(b []byte, i int) (end, n, size int) {
	if i >= len(b) || b[i] != '[' {
		return 0, 0, 0
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, 0, 0
	}
	for {
		lit, plain := scanString(b, i)
		if lit == 0 {
			return 0, 0, 0
		}
		n++
		if plain {
			size += lit - 2
		}
		i = skipSpace(b, i+lit)
		if i == len(b) {
			return 0, 0, 0
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, n, size
		default:
			return 0, 0, 0
		}
	}
}

// fillItems is the second pass over an array scanItems accepted: one
// exactly-sized slice whose plain items are substrings of blocks of at most
// itemBlock bytes (an item larger than that has a block of its own). A
// literal with an escape or a byte outside ASCII is encoding/json's, which
// may refuse it.
func fillItems(arr []byte, n, size int) ([]string, bool) {
	items := make([]string, 0, n)
	var block strings.Builder
	i := skipSpace(arr, 1)
	for len(items) < n {
		lit, plain := scanString(arr, i)
		if plain {
			body := arr[i+1 : i+lit-1]
			if len(body) > block.Cap()-block.Len() {
				block.Reset()
				block.Grow(max(len(body), min(size, itemBlock)))
			}
			at := block.Len()
			block.Write(body)
			items = append(items, block.String()[at:])
			size -= len(body)
		} else {
			var s string
			if json.Unmarshal(arr[i:i+lit], &s) != nil {
				return nil, false
			}
			items = append(items, s)
		}
		i = skipSpace(arr, skipSpace(arr, i+lit)+1)
	}
	return items, true
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
// json.Encoder writes for it.
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
		for i, item := range items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendItem(dst, item)
		}
		line = line[at+len(`""`):]
	}
	return append(append(dst, line...), '\n'), nil
}

// appendItem appends item as a JSON string literal. An item json.Marshal
// would write byte for byte between quotes is written so; any other is
// json.Marshal's.
func appendItem(dst []byte, item string) []byte {
	for i := 0; i < len(item); i++ {
		if !verbatim[item[i]] {
			lit, _ := json.Marshal(item) // a string always marshals
			return append(dst, lit...)
		}
	}
	return append(append(append(dst, '"'), item...), '"')
}
