package wire

// The line codec. A Request or Response line is read and written here by
// hand, with exactly encoding/json's bytes and meaning: the writer writes
// what json.Marshal writes for the value, and the reader accepts a line
// only when json.Unmarshal would read the same value from it. What the
// hand codec does not cover goes to encoding/json whole: a line that holds
// meta, stats or tuples, a v1 peer's JSON items array, null, a key spelled
// other than exactly its tag, a string with a byte outside printable ASCII
// or an escape json.Marshal does not write in one, or a number that is not
// a plain integer that fits. FuzzFrameLine is the specification.

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// ops are the protocol's op codes: an op read off a line that is one of
// them is the constant, not a string of its own.
var ops = [...]string{OpMeta, OpSelect, OpSemi, OpBinding, OpLoad, OpFetch,
	OpSelectRecs, OpSemiRecs, OpSemiBloom, OpStats, OpQuery}

// requestLine reads line into req, which it zeroes first, and reports
// whether it could; when it could not, req holds nothing of meaning and the
// line is encoding/json's.
func (r *frameReader) requestLine(line []byte, req *Request) bool {
	*req = Request{}
	s := lineScan{b: line, r: r}
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "op":
			req.Op, ok = s.op()
		case "qid":
			req.QueryID, ok = s.text(&r.qid)
		case "cond":
			req.Cond, ok = s.text(nil)
		case "itemCount":
			req.ItemCount, ok = s.int()
		case "blockBytes":
			req.BlockBytes, ok = s.int()
		case "item":
			req.Item, ok = s.text(nil)
		case "filter":
			req.Filter, ok = s.text(nil)
		case "chunk":
			req.Chunk, ok = s.int()
		case "frag":
			req.Frag, ok = s.bool()
		case "itemBlock":
			req.ItemBlock, ok = s.bool()
		case "tenant":
			req.Tenant, ok = s.text(&r.tenant)
		case "conds":
			req.Conds, ok = s.texts()
		case "stream":
			req.Stream, ok = s.bool()
		}
		return ok
	}) && s.end()
}

// responseLine is requestLine for a response.
func (r *frameReader) responseLine(line []byte, resp *Response) bool {
	*resp = Response{}
	s := lineScan{b: line, r: r}
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "error":
			resp.Error, ok = s.text(nil)
		case "qid":
			resp.QueryID, ok = s.text(&r.qid)
		case "itemCount":
			resp.ItemCount, ok = s.int()
		case "blockBytes":
			resp.BlockBytes, ok = s.int()
		case "match":
			resp.Match, ok = s.bool()
		case "more":
			resp.More, ok = s.bool()
		case "frag":
			// A second frag is read into the first, as encoding/json reads it.
			if resp.Frag == nil {
				resp.Frag = new(Fragment)
			}
			ok = s.fragment(resp.Frag)
		case "code":
			resp.Code, ok = s.text(nil)
		case "planCached":
			resp.PlanCached, ok = s.bool()
		case "answerCached":
			resp.AnswerCached, ok = s.bool()
		}
		return ok
	}) && s.end()
}

// lineScan reads the JSON object of one line, at b[i:]. Its strings are
// decoded in r's scratch, and r's last qid, tenant and source are reused.
type lineScan struct {
	b []byte
	i int
	r *frameReader
}

func (s *lineScan) space() { s.i = skipSpace(s.b, s.i) }

// object reads an object, handing each member's key to member, which
// reads the value and reports whether it could; a key it does not know is
// a value it cannot read.
func (s *lineScan) object(member func(key []byte) bool) bool {
	if s.space(); s.i == len(s.b) || s.b[s.i] != '{' {
		return false
	}
	s.i++
	for first := true; ; first = false {
		key, done, ok := s.key(first)
		switch {
		case !ok:
			return false
		case done:
			return true
		case !member(key):
			return false
		}
	}
}

// key reads the object's next member key and the colon after it, or the
// closing brace (done); first says no member came before.
func (s *lineScan) key(first bool) (key []byte, done, ok bool) {
	s.space()
	if s.i == len(s.b) {
		return nil, false, false
	}
	if s.b[s.i] == '}' {
		s.i++
		return nil, true, true
	}
	if !first {
		if s.b[s.i] != ',' {
			return nil, false, false
		}
		s.i++
		s.space()
	}
	key, escaped, ok := s.str()
	if !ok || escaped {
		return nil, false, false
	}
	if s.space(); s.i == len(s.b) || s.b[s.i] != ':' {
		return nil, false, false
	}
	s.i++
	s.space()
	return key, false, true
}

// end reports whether nothing but space follows the object.
func (s *lineScan) end() bool {
	s.space()
	return s.i == len(s.b)
}

// str reads a string literal and returns its body, escapes and all, and
// whether it holds any. The body is printable ASCII and the escapes
// json.Marshal writes in it: \", \\, \u003c, \u003e and \u0026.
func (s *lineScan) str() (body []byte, escaped, ok bool) {
	b, i := s.b, s.i
	if i == len(b) || b[i] != '"' {
		return nil, false, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s.i = j + 1
			return b[i+1 : j], escaped, true
		case c == '\\':
			n := escapeLen(b[j+1:])
			if n == 0 {
				return nil, false, false
			}
			j, escaped = j+n, true
		case c < 0x20 || c >= 0x80:
			return nil, false, false
		}
	}
	return nil, false, false
}

// escapeLen is the length of the escape that b starts with, the backslash
// before it not counted, or zero when it is none that str reads.
func escapeLen(b []byte) int {
	switch {
	case len(b) > 0 && (b[0] == '"' || b[0] == '\\'):
		return 1
	case bytes.HasPrefix(b, []byte(`u003c`)), bytes.HasPrefix(b, []byte(`u003e`)), bytes.HasPrefix(b, []byte(`u0026`)):
		return 5
	}
	return 0
}

// unescape appends the text of body, which str read, to dst.
func unescape(dst, body []byte) []byte {
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' {
			i++
			if c = body[i]; c == 'u' {
				switch i += 4; body[i] {
				case 'c':
					c = '<'
				case 'e':
					c = '>'
				default:
					c = '&'
				}
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// text reads a string. With prev, a string equal to *prev is *prev, and
// any other becomes it.
func (s *lineScan) text(prev *string) (string, bool) {
	body, escaped, ok := s.str()
	if !ok {
		return "", false
	}
	if escaped {
		s.r.text = unescape(s.r.text[:0], body)
		body = s.r.text
	}
	var v string
	switch {
	case prev == nil:
		v = string(body)
	case string(body) == *prev:
		v = *prev
	default:
		*prev = string(body)
		v = *prev
	}
	if escaped {
		s.r.text = kept(s.r.text)
	}
	return v, true
}

// op reads an op code: one of ops is the constant.
func (s *lineScan) op() (string, bool) {
	at := s.i
	if body, escaped, ok := s.str(); ok && !escaped {
		for _, op := range ops {
			if string(body) == op {
				return op, true
			}
		}
	}
	s.i = at
	return s.text(nil)
}

// texts reads an array of one or more strings, all pieces of one string.
func (s *lineScan) texts() ([]string, bool) {
	if s.i == len(s.b) || s.b[s.i] != '[' {
		return nil, false
	}
	s.i++
	buf, ends := s.r.text[:0], s.r.ends[:0]
	for {
		s.space()
		body, escaped, ok := s.str()
		if !ok {
			return nil, false
		}
		if escaped {
			buf = unescape(buf, body)
		} else {
			buf = append(buf, body...)
		}
		ends = append(ends, len(buf))
		if s.space(); s.i == len(s.b) {
			return nil, false
		}
		if c := s.b[s.i]; c == ']' {
			s.i++
			break
		} else if c != ',' {
			return nil, false
		}
		s.i++
	}
	all, out := string(buf), make([]string, len(ends))
	from := 0
	for k, to := range ends {
		out[k], from = all[from:to], to
	}
	s.r.text, s.r.ends = kept(buf), kept(ends)
	return out, true
}

// int64 reads an integer as json.Unmarshal reads one into a Go integer of
// the given bits: a minus or none and digits, no leading zero, and no more
// digits than any such integer fits.
func (s *lineScan) int64(bits int) (int64, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := 18
	if bits == 32 {
		digits = 9
	}
	start := i
	var v int64
	for ; i < len(b) && i-start <= digits && b[i] >= '0' && b[i] <= '9'; i++ {
		v = 10*v + int64(b[i]-'0')
	}
	n := i - start
	if n == 0 || n > digits || (n > 1 && b[start] == '0') {
		return 0, false
	}
	s.i = i
	if neg {
		v = -v
	}
	return v, true
}

// int reads an int.
func (s *lineScan) int() (int, bool) {
	v, ok := s.int64(strconv.IntSize)
	return int(v), ok
}

// bool reads true or false.
func (s *lineScan) bool() (bool, bool) {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// fragment reads a fragment's object into f.
func (s *lineScan) fragment(f *Fragment) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "source":
			f.Source, ok = s.text(&s.r.source)
		case "op":
			f.Op, ok = s.op()
		case "queueUs":
			f.QueueUS, ok = s.int64(64)
		case "queueDepth":
			f.QueueDepth, ok = s.int()
		case "parseUs":
			f.ParseUS, ok = s.int64(64)
		case "scanUs":
			f.ScanUS, ok = s.int64(64)
		case "chunkUs":
			f.ChunkUS, ok = s.int64(64)
		case "totalUs":
			f.TotalUS, ok = s.int64(64)
		case "bytesIn":
			f.BytesIn, ok = s.int()
		case "bytesOut":
			f.BytesOut, ok = s.int()
		}
		return ok
	})
}

// unmarshalLine is encoding/json's reading of line into *v. It decodes
// into a value of its own, so that v, a reader's frame, stays where its
// caller put it.
func unmarshalLine[T Request | Response](line []byte, v *T) error {
	var own T
	err := json.Unmarshal(line, &own)
	*v = own
	return err
}

// lineWriter appends a line to b, member by member, as json.Marshal writes
// it; ok turns false at a string that needs more than printable ASCII.
type lineWriter struct {
	b     []byte
	start int
	ok    bool
}

func newLineWriter(dst []byte) lineWriter {
	return lineWriter{b: append(dst, '{'), start: len(dst) + 1, ok: true}
}

// key writes a member's key and colon, after a comma unless it is the
// object's first.
func (w *lineWriter) key(k string) {
	if len(w.b) > w.start {
		w.b = append(w.b, ',')
	}
	w.b = append(append(append(w.b, '"'), k...), '"', ':')
}

// str writes s as json.Marshal does when it is printable ASCII.
func (w *lineWriter) str(s string) {
	w.b = append(w.b, '"')
	at := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 {
			w.ok = false
			return
		}
		if c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		w.b = append(w.b, s[at:i]...)
		at = i + 1
		if c == '"' || c == '\\' {
			w.b = append(w.b, '\\', c)
		} else {
			w.b = append(w.b, `\u00`...)
			w.b = append(w.b, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		}
	}
	w.b = append(append(w.b, s[at:]...), '"')
}

// text writes a string member; omitEmpty leaves an empty one out.
func (w *lineWriter) text(k, v string, omitEmpty bool) {
	if v != "" || !omitEmpty {
		w.key(k)
		w.str(v)
	}
}

// int writes an integer member; omitEmpty leaves a zero one out.
func (w *lineWriter) int(k string, v int64, omitEmpty bool) {
	if v != 0 || !omitEmpty {
		w.key(k)
		w.b = strconv.AppendInt(w.b, v, 10)
	}
}

// flag writes a true member and leaves a false one out.
func (w *lineWriter) flag(k string, v bool) {
	if v {
		w.key(k)
		w.b = append(w.b, "true"...)
	}
}

// close ends the object and returns the line, or ok false.
func (w *lineWriter) close() ([]byte, bool) {
	return append(w.b, '}'), w.ok
}

// appendRequestLine appends req's line, h in place of its block header, to
// dst; ok false says json.Marshal writes it. req's items are not written:
// they are the block's.
func appendRequestLine(dst []byte, req *Request, h blockHeader) ([]byte, bool) {
	w := newLineWriter(dst)
	w.text("op", req.Op, false)
	w.text("qid", req.QueryID, true)
	w.text("cond", req.Cond, true)
	w.int("itemCount", int64(h.ItemCount), true)
	w.int("blockBytes", int64(h.BlockBytes), true)
	w.text("item", req.Item, true)
	w.text("filter", req.Filter, true)
	w.int("chunk", int64(req.Chunk), true)
	w.flag("frag", req.Frag)
	w.flag("itemBlock", req.ItemBlock)
	w.text("tenant", req.Tenant, true)
	if len(req.Conds) > 0 {
		w.key("conds")
		w.b = append(w.b, '[')
		for i, c := range req.Conds {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(c)
		}
		w.b = append(w.b, ']')
	}
	w.flag("stream", req.Stream)
	return w.close()
}

// appendResponseLine is appendRequestLine for a response; one that carries
// tuples, meta or stats is json.Marshal's.
func appendResponseLine(dst []byte, resp *Response, h blockHeader) ([]byte, bool) {
	if len(resp.Tuples) > 0 || resp.Meta != nil || resp.Stats != nil {
		return dst, false
	}
	w := newLineWriter(dst)
	w.text("error", resp.Error, true)
	w.text("qid", resp.QueryID, true)
	w.int("itemCount", int64(h.ItemCount), true)
	w.int("blockBytes", int64(h.BlockBytes), true)
	w.flag("match", resp.Match)
	w.flag("more", resp.More)
	if f := resp.Frag; f != nil {
		w.key("frag")
		fw := newLineWriter(w.b)
		fw.text("source", f.Source, false)
		fw.text("op", f.Op, false)
		fw.int("queueUs", f.QueueUS, false)
		fw.int("queueDepth", int64(f.QueueDepth), true)
		fw.int("parseUs", f.ParseUS, false)
		fw.int("scanUs", f.ScanUS, false)
		fw.int("chunkUs", f.ChunkUS, false)
		fw.int("totalUs", f.TotalUS, false)
		fw.int("bytesIn", int64(f.BytesIn), false)
		fw.int("bytesOut", int64(f.BytesOut), false)
		var ok bool
		w.b, ok = fw.close()
		w.ok = w.ok && ok
	}
	w.text("code", resp.Code, true)
	w.flag("planCached", resp.PlanCached)
	w.flag("answerCached", resp.AnswerCached)
	return w.close()
}

// marshalLine appends json.Marshal's line for v to dst. It marshals a
// value of its own, so that the frame v was copied from stays where its
// caller put it.
func marshalLine[T Request | Response](dst []byte, v T) ([]byte, error) {
	line, err := json.Marshal(&v)
	if err != nil {
		return dst, err
	}
	return append(dst, line...), nil
}
