package wire

// The frame codec. A frame is a line, a JSON object and its newline, or a
// line and its item block: a peer that asked for blocks (the item-block
// extension, Meta.ItemBlock) gets a frame's items after its line as their
// lengths in uvarints and then their bytes, the line carrying their count
// and the block's length in place of "items". A line is what json.Marshal
// writes and means what json.Unmarshal reads: line.go reads and writes
// every request and response line by hand to exactly that, and leaves to
// encoding/json whole only a line that holds what it does not code, such
// as meta, stats, tuples or a v1 peer's items array. The block is this
// file's. DESIGN.md "Transport" states the contract.

import (
	"bufio"
	"encoding/binary"
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
// The codec switches on a frame's type and calls no method through the
// interface, so that a frame it is handed stays where its caller put it.
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
	// text and ends are scratch for the strings of the line being read.
	text []byte
	ends []int
	// qid, tenant and source are the last of each read on the connection
	// (qid also the last sent on it): a line that repeats one reuses its
	// string.
	qid, tenant, source string
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

// read decodes the next frame into v, which it overwrites, charging its
// bytes to *budget: the line, and then the block its header announces. The
// block is charged in full before anything is allocated for it, so a header
// cannot make the reader allocate past what the budget has left.
func (r *frameReader) read(v frame, budget *int) error {
	line, err := r.next(budget)
	if err != nil {
		return err
	}
	var field *[]string
	var hdr *blockHeader
	final := false
	switch f := v.(type) {
	case *Request:
		if !r.requestLine(line, f) {
			err = unmarshalLine(line, f)
		}
		field, hdr = f.itemFields()
	case *Response:
		if !r.responseLine(line, f) {
			err = unmarshalLine(line, f)
		}
		field, hdr = f.itemFields()
		final = !f.More
	}
	if err != nil {
		return err
	}
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
	if r.keep && final {
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

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
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
// response's Encoded block when it carries one. The line is line.go's,
// or json.Marshal's when it holds what line.go does not write.
func appendFrame(dst []byte, v frame, block bool) ([]byte, error) {
	// h is the header the line carries: the block's, when it has one.
	var items []string
	var h blockHeader
	var enc *EncodedItems
	switch f := v.(type) {
	case *Request:
		items, h = f.Items, f.blockHeader
	case *Response:
		items, h, enc = f.Items, f.blockHeader, f.Encoded
	}
	inBlock := block && len(items) > 0
	switch {
	case !inBlock:
	case enc != nil:
		h = blockHeader{ItemCount: len(items), BlockBytes: len(enc.block)}
	default:
		h = blockHeader{ItemCount: len(items), BlockBytes: blockSize(items)}
	}
	line, ok := dst, false
	switch f := v.(type) {
	case *Request:
		if inBlock || len(items) == 0 {
			line, ok = appendRequestLine(dst, f, h)
		}
		if !ok {
			c := *f
			if inBlock {
				c.Items, c.blockHeader = nil, h
			}
			var err error
			if line, err = marshalLine(dst, c); err != nil {
				return dst, err
			}
		}
	case *Response:
		if inBlock || len(items) == 0 {
			line, ok = appendResponseLine(dst, f, h)
		}
		if !ok {
			c := *f
			if inBlock {
				c.Items, c.blockHeader = nil, h
			}
			var err error
			if line, err = marshalLine(dst, c); err != nil {
				return dst, err
			}
		}
	}
	dst = append(line, '\n')
	switch {
	case !inBlock:
		return dst, nil
	case enc != nil:
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
