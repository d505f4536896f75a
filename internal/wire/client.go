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
	conn, err := DialConn(ctx, addr, func(m Meta) (err error) {
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
// not advertise it (Meta.Stats false) is one load, summarized here.
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
		return decodeReply(call.Op, resp, c.schema)
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
