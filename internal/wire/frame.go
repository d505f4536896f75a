package wire

// The frame codec. A frame is a line, a JSON object and its newline, or a
// line and its item block: a peer that asked for blocks (the item-block
// extension, Meta.ItemBlock) gets a frame's items after its line as their
// lengths in uvarints and then their bytes, the line carrying their count
// and the block's length in place of "items". Everything on a line is
// encoding/json's, so the meaning of a line is exactly what json.Unmarshal
// reads; the block is this file's. The line of a block chunk or a block
// answer is read here without encoding/json when it holds nothing but the
// members this codec writes on one.
// DESIGN.md "Transport" states the contract.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"reflect"
	"slices"
	"strings"

	"fusionq/internal/set"
)

const (
	// maxKeptBuffer is the largest per-connection buffer kept between
	// frames. One that grew past it for a large frame is let go afterwards,
	// so a connection's footprint follows its usual frames, not its largest.
	maxKeptBuffer = 64 << 10
	// itemBlock caps one backing string of decoded items. The items of a
	// frame are substrings of such strings, so an item that outlives its
	// frame's other items pins at most this much.
	itemBlock = 4 << 10
	// blockStep is the least a block's buffer grows by while its bytes
	// arrive: a block up to it is read into one allocation.
	blockStep = 1 << 20
)

// errBlock reports an item block that does not hold what its line says.
var errBlock = errors.New("wire: malformed item block")

// kept is buf emptied for the next frame, or nothing when it grew past
// maxKeptBuffer bytes.
func kept[T any](buf []T) []T {
	if uintptr(cap(buf))*reflect.TypeFor[T]().Size() > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}

// blockHeader stands in for a frame's items on the line of a frame whose
// items follow it as a block: ItemCount items in a block of BlockBytes
// bytes. Only the codec sets it: a frame decoded has its items in Items and
// the header zero.
type blockHeader struct {
	ItemCount  int `json:"itemCount,omitempty"`
	BlockBytes int `json:"blockBytes,omitempty"`
}

// frame is what Request and Response have in common for the codec: their
// items and the header that stands in for them on a block frame's line.
type frame interface {
	itemFields() (*[]string, *blockHeader)
}

func (r *Request) itemFields() (*[]string, *blockHeader)  { return &r.Items, &r.blockHeader }
func (r *Response) itemFields() (*[]string, *blockHeader) { return &r.Items, &r.blockHeader }

// frameReader reads frames off one connection. A block's items land in a
// buffer from set.Alloc, which the caller owns and gives back with
// set.Release; a line's items (a v1 peer's) in a slice of their own.
type frameReader struct {
	br *bufio.Reader
	// spill gathers a line longer than br's buffer, block a frame's item
	// block.
	spill, block []byte
	// keep has the block of a response without More land in a slice of
	// exactly its size instead, which nothing gives back. Conn.exchange
	// sets it for an answer's first frame on a connection whose callers
	// keep their answers (Conn.own false), so that a one-frame answer is
	// theirs as it is decoded: copying it out of a pooled buffer and
	// clearing that cost answer-hot a fifth of its CPU (EXPERIMENTS E40).
	keep bool
}

// next returns the next line that is not blank, without its meaning checked.
// Every byte consumed, terminators and blank lines included, is charged to
// *budget, and a line that would overdraw it fails with ErrFrameTooLarge
// before it is buffered. Bytes a peer leaves unterminated before hanging up
// are its last line. The line is valid until the next read from br.
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

// read decodes the next frame into v, charging its bytes to *budget: the
// line, and then the block its header announces. The block is charged in
// full before anything is allocated for it, so a header cannot make the
// reader allocate past what the budget has left.
func (r *frameReader) read(v frame, budget *int) error {
	line, err := r.next(budget)
	if err != nil {
		return err
	}
	resp, isResp := v.(*Response)
	if !isResp || !readBlockLine(line, resp) {
		if err := json.Unmarshal(line, v); err != nil {
			return err
		}
	}
	field, hdr := v.itemFields()
	h := *hdr
	*hdr = blockHeader{}
	switch {
	case h == blockHeader{}:
		return nil
	case len(*field) > 0 || h.ItemCount < 0 || h.BlockBytes < h.ItemCount:
		return errBlock
	case h.BlockBytes > *budget:
		return ErrFrameTooLarge
	}
	*budget -= h.BlockBytes
	defer func() { r.block = kept(r.block) }()
	if err := r.readBlock(h.BlockBytes); err != nil {
		return err
	}
	var items []string
	if r.keep && isResp && !resp.More {
		items = make([]string, h.ItemCount)
	} else {
		items = set.Alloc(h.ItemCount)[:h.ItemCount]
	}
	if err := decodeBlock(items, r.block); err != nil {
		set.Release(set.FromSorted(items))
		return err
	}
	*field = items
	return nil
}

// readBlock reads the next n bytes into r.block, which grows as they
// arrive, by at least blockStep bytes at a time: a header that announces
// more than the peer sends costs at most blockStep bytes more than what
// was sent, not what was announced.
func (r *frameReader) readBlock(n int) error {
	b := r.block[:0]
	defer func() { r.block = b }()
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), blockStep)))
		}
		m, err := r.br.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		} else if err != nil {
			return err
		}
	}
	return nil
}

// readBlockLine reads line into resp when it is the line of a block frame
// as this codec writes a chunk's or an answer's: an object whose members
// are at most a qid that is a plain string, the two block counts as plain
// integers, and more, planCached and answerCached as true or false, each
// under exactly its name (the last of each counts, as for encoding/json).
// Any other line is left to encoding/json, so what a line means is
// encoding/json's whatever it holds; resp is untouched then.
func readBlockLine(line []byte, resp *Response) bool {
	var r Response
	var qid []byte
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	for i = skipSpace(line, i+1); ; i = skipSpace(line, i+1) {
		key, n := plainString(line, i)
		if n == 0 {
			return false
		}
		if i = skipSpace(line, i+n); i == len(line) || line[i] != ':' {
			return false
		}
		i = skipSpace(line, i+1)
		switch string(key) {
		case "qid":
			qid, n = plainString(line, i)
		case "itemCount":
			r.ItemCount, n = plainInt(line, i)
		case "blockBytes":
			r.BlockBytes, n = plainInt(line, i)
		case "more":
			r.More, n = plainBool(line, i)
		case "planCached":
			r.PlanCached, n = plainBool(line, i)
		case "answerCached":
			r.AnswerCached, n = plainBool(line, i)
		default:
			return false
		}
		if n == 0 {
			return false
		}
		if i = skipSpace(line, i+n); i == len(line) {
			return false
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return false
		}
	}
	if skipSpace(line, i+1) != len(line) {
		return false
	}
	r.QueryID = string(qid)
	*resp = r
	return true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString returns the body of the string literal at b[i:] and its
// length, quotes included, when its body stands for itself: printable
// ASCII with no quote or backslash. Zero means there is no such literal.
func plainString(b []byte, i int) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1 - i
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, 0
		}
	}
	return nil, 0
}

// plainInt reads the number at b[i:] when it is a non-negative integer of
// at most nine digits and no leading zero, and returns it and its length;
// zero length means there is no such number.
func plainInt(b []byte, i int) (int, int) {
	v, j := 0, i
	for j < len(b) && j-i < 10 && b[j] >= '0' && b[j] <= '9' {
		v = 10*v + int(b[j]-'0')
		j++
	}
	if n := j - i; n == 0 || n > 9 || (n > 1 && b[i] == '0') {
		return 0, 0
	}
	return v, j - i
}

// plainBool reads the literal true or false at b[i:] and returns it and
// its length; zero length means there is neither.
func plainBool(b []byte, i int) (bool, int) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, 4
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, 5
	}
	return false, 0
}

// decodeBlock fills items from block, which must hold exactly len(items)
// items: their lengths as minimal uvarints, then their bytes, nothing
// after. The bytes are not looked at: they are copied into strings of at
// most itemBlock bytes (an item larger than that has one of its own), and
// each item is a substring of one. A length below 128, one byte, is read in
// line.
func decodeBlock(items []string, block []byte) error {
	at, size := 0, 0
	for range items {
		if at < len(block) && block[at] < 0x80 {
			size += int(block[at])
			at++
			continue
		}
		n, k := binary.Uvarint(block[at:])
		if k <= 1 || block[at+k-1] == 0 || n > uint64(len(block)) {
			return errBlock
		}
		at += k
		size += int(n)
	}
	if at+size != len(block) {
		return errBlock
	}
	var s string
	for i, p, d := 0, 0, at; i < len(items); i++ {
		n := int(block[p])
		if n < 0x80 {
			p++
		} else {
			u, k := binary.Uvarint(block[p:])
			n, p = int(u), p+k
		}
		if n > len(s) {
			s = string(block[d : d+max(n, min(len(block)-d, itemBlock))])
		}
		items[i], s = s[:n], s[n:]
		d += n
	}
	return nil
}

// blockSize is the length of the block of items.
func blockSize(items []string) int {
	n := 0
	for _, it := range items {
		n += uvarintLen(len(it)) + len(it)
	}
	return n
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// appendBlock appends the block of items to dst.
func appendBlock(dst []byte, items []string) []byte {
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it)))
	}
	for _, it := range items {
		dst = append(dst, it...)
	}
	return dst
}

// appendFrame appends v's frame to dst. Without block, or with no items,
// it is the line json.Encoder writes for v. With block, the line has the
// block's header in place of the items and the block follows it: a
// response's Encoded block when it carries one.
func appendFrame(dst []byte, v frame, block bool) ([]byte, error) {
	field, hdr := v.itemFields()
	items := *field
	if !block || len(items) == 0 {
		line, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		return append(append(dst, line...), '\n'), nil
	}
	var enc *EncodedItems
	if resp, ok := v.(*Response); ok {
		enc = resp.Encoded
	}
	size := 0
	if enc != nil {
		size = len(enc.block)
	} else {
		size = blockSize(items)
	}
	*field, *hdr = nil, blockHeader{ItemCount: len(items), BlockBytes: size}
	line, err := json.Marshal(v)
	*field, *hdr = items, blockHeader{}
	if err != nil {
		return dst, err
	}
	dst = append(append(dst, line...), '\n')
	if enc != nil {
		return append(dst, enc.block...), nil
	}
	return appendBlock(dst, items), nil
}

// EncodedItems is an item array encoded once for the wire, to be written
// any number of times: its block is exactly the array's item block, and its
// items are substrings of the block. So it holds nothing of what its items
// were cut from, and it is as long as its block.
type EncodedItems struct {
	block string
	items []string
}

// EncodeItems encodes items as appendFrame writes them to a peer that reads
// blocks: each item's bytes are copied once, into the block.
func EncodeItems(items []string) EncodedItems {
	var b strings.Builder
	b.Grow(blockSize(items))
	var n [binary.MaxVarintLen64]byte
	for _, it := range items {
		b.Write(binary.AppendUvarint(n[:0], uint64(len(it))))
	}
	at := b.Len()
	for _, it := range items {
		b.WriteString(it)
	}
	block := b.String()
	own := make([]string, len(items))
	for i, it := range items {
		own[i] = block[at : at+len(it)]
		at += len(it)
	}
	return EncodedItems{block: block, items: own}
}

// Items returns the items the array encodes, in order. The slice is the
// array's own and must not be modified.
func (e EncodedItems) Items() []string { return e.items }

// Len returns the length of the array's block in bytes.
func (e EncodedItems) Len() int { return len(e.block) }
