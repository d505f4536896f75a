package wire

import (
	"context"
	"fmt"

	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// Client is a remote source: it implements source.Source by speaking the
// wire protocol to a Server over one Conn, so a mediator can treat local and
// remote sources uniformly. Deadlines, cancellation, reconnection and the
// transient classification of transport failures are Conn's.
type Client struct {
	*Conn
	source.Layer
	schema *relation.Schema
}

var _ source.Source = (*Client)(nil)

// DialContext connects to a wire server and fetches its metadata, honoring
// ctx for the connection setup and the metadata exchange.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c := &Client{}
	c.Layer = source.Over(nil, c.exchange)
	conn, err := dialConn(ctx, addr, true, func(m Meta) (err error) {
		if m.Queries {
			return fmt.Errorf("wire: server %s (%s) does not serve a source — it is a mediator service, not a source server",
				addr, m.Name)
		}
		c.schema, err = DecodeSchema(m.Merge, m.Columns)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.Conn = conn
	return c, nil
}

// Name implements source.Source.
func (c *Client) Name() string { return c.meta.Name }

// Schema implements source.Source.
func (c *Client) Schema() *relation.Schema { return c.schema }

// Caps implements source.Source.
func (c *Client) Caps() source.Capabilities {
	return source.Capabilities{
		NativeSemijoin: c.meta.NativeSemijoin,
		PassedBindings: c.meta.PassedBindings,
		BloomSemijoin:  c.meta.BloomSemijoin,
	}
}

// Card implements source.Source.
func (c *Client) Card() (int, int, int) {
	return c.meta.Tuples, c.meta.Distinct, c.meta.Bytes
}

// exchange is the layer's handler: one source operation is one request and
// its response. An operation the server's capabilities rule out fails here,
// without a round trip. A streamed selection is a chunked transfer
// (stream.go); against a server that does not advertise chunking
// (Meta.Chunking false — a v1 peer from before the extension) it degrades to
// one materialized selection wrapped in a batch iterator, so the caller sees
// the same interface either way. Likewise stats against a server that does
// not advertise it (Meta.Stats false) is one load, summarized here. The
// peer is autonomous, so a materialized answer is held to its operation's
// contract (check) before it is anyone's. Its items are in a pooled buffer
// (Conn.own), the caller's outright.
func (c *Client) exchange(ctx context.Context, call source.Call) (source.Reply, error) {
	if !source.Supports(c.Caps(), call.Op) {
		return source.Reply{}, fmt.Errorf("wire: %s: %s: %w", c.meta.Name, call.Op, source.ErrUnsupported)
	}
	if call.Op == source.OpStats && !c.meta.Stats {
		reply, err := c.exchange(ctx, source.Call{Op: source.OpLoad})
		if err != nil {
			return source.Reply{}, err
		}
		return source.Reply{Stats: reply.Rel.Summarize()}, nil
	}
	if !call.Streamed() {
		resp, err := c.Do(ctx, encodeCall(call))
		if err != nil {
			return source.Reply{}, err
		}
		reply, err := decodeReply(call.Op, resp, c.schema)
		if err == nil {
			err = c.check(call, reply)
		}
		if err != nil {
			set.Release(reply.Items)
			return source.Reply{}, err
		}
		return reply, nil
	}
	if c.meta.Chunking {
		it, err := c.Stream(ctx, encodeCall(call))
		return source.Reply{Stream: it}, err
	}
	batch := call.Batch
	call.Batch = 0
	reply, err := c.exchange(ctx, call)
	if err != nil {
		return source.Reply{}, err
	}
	return source.Reply{Stream: set.IterOf(reply.Items, batch)}, nil
}

// check holds a peer's answer to what call asked, while call's items are
// still the caller's: a semijoin's items (sjq) and records (sjqr, by merge
// attribute) are of y, a fetch's records of the items asked for. Each is
// one pass over sorted data and allocates nothing. A violation is
// source.ErrContract, naming the peer and the op.
func (c *Client) check(call source.Call, reply source.Reply) error {
	ok := true
	switch call.Op {
	case source.OpSemi:
		ok = reply.Items.SubsetOf(call.Items)
	case source.OpSemiRecs, source.OpFetch:
		ok = recordsOf(reply.Tuples, c.schema.MergeIndex(), call.Items)
	}
	if !ok {
		return fmt.Errorf("wire: %s: %s answer: %w", c.meta.Name, call.Op, source.ErrContract)
	}
	return nil
}

// recordsOf reports whether every tuple has a merge attribute, column m,
// and it is an item of y. Tuples come grouped in item order, so a cursor
// walks y once; a tuple out of that order is looked up.
func recordsOf(tuples []relation.Tuple, m int, y set.Set) bool {
	items, i := y.Items(), 0
	for _, t := range tuples {
		if m >= len(t) {
			return false
		}
		v := t[m].Raw()
		for i < len(items) && items[i] < v {
			i++
		}
		if (i == len(items) || items[i] != v) && !y.Contains(v) {
			return false
		}
	}
	return true
}
