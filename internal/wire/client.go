package wire

import (
	"context"
	"fmt"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
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
	schema *relation.Schema
}

var _ source.Source = (*Client)(nil)

// Dial connects to a wire server and fetches its metadata.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial honoring ctx for the connection setup and the
// metadata exchange.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c := &Client{}
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

// Select implements source.Source.
func (c *Client) Select(ctx context.Context, cd cond.Cond) (set.Set, error) {
	resp, err := c.Do(ctx, Request{Op: OpSelect, Cond: cd.String()})
	if err != nil {
		return set.Set{}, err
	}
	return set.New(resp.Items...), nil
}

// Semijoin implements source.Source.
func (c *Client) Semijoin(ctx context.Context, cd cond.Cond, y set.Set) (set.Set, error) {
	if !c.meta.NativeSemijoin {
		return set.Set{}, fmt.Errorf("wire: %s: semijoin: %w", c.meta.Name, source.ErrUnsupported)
	}
	resp, err := c.Do(ctx, Request{Op: OpSemi, Cond: cd.String(), Items: y.Slice()})
	if err != nil {
		return set.Set{}, err
	}
	return set.New(resp.Items...), nil
}

// SelectBinding implements source.Source.
func (c *Client) SelectBinding(ctx context.Context, cd cond.Cond, item string) (bool, error) {
	if !c.meta.PassedBindings && !c.meta.NativeSemijoin {
		return false, fmt.Errorf("wire: %s: passed binding: %w", c.meta.Name, source.ErrUnsupported)
	}
	resp, err := c.Do(ctx, Request{Op: OpBinding, Cond: cd.String(), Item: item})
	if err != nil {
		return false, err
	}
	return resp.Match, nil
}

// Load implements source.Source.
func (c *Client) Load(ctx context.Context) (*relation.Relation, error) {
	resp, err := c.Do(ctx, Request{Op: OpLoad})
	if err != nil {
		return nil, err
	}
	return c.decodeRelation(resp.Tuples)
}

// Fetch implements source.Source.
func (c *Client) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	resp, err := c.Do(ctx, Request{Op: OpFetch, Items: items.Slice()})
	if err != nil {
		return nil, err
	}
	return c.decodeTuples(resp.Tuples)
}

// SemijoinBloom implements source.Source.
func (c *Client) SemijoinBloom(ctx context.Context, cd cond.Cond, f *bloom.Filter) (set.Set, error) {
	if !c.meta.BloomSemijoin {
		return set.Set{}, fmt.Errorf("wire: %s: bloom semijoin: %w", c.meta.Name, source.ErrUnsupported)
	}
	resp, err := c.Do(ctx, Request{Op: OpSemiBloom, Cond: cd.String(), Filter: f.Encode()})
	if err != nil {
		return set.Set{}, err
	}
	return set.New(resp.Items...), nil
}

// SelectRecords implements source.Source.
func (c *Client) SelectRecords(ctx context.Context, cd cond.Cond) ([]relation.Tuple, error) {
	resp, err := c.Do(ctx, Request{Op: OpSelectRecs, Cond: cd.String()})
	if err != nil {
		return nil, err
	}
	return c.decodeTuples(resp.Tuples)
}

// SemijoinRecords implements source.Source.
func (c *Client) SemijoinRecords(ctx context.Context, cd cond.Cond, y set.Set) ([]relation.Tuple, error) {
	if !c.meta.NativeSemijoin {
		return nil, fmt.Errorf("wire: %s: record semijoin: %w", c.meta.Name, source.ErrUnsupported)
	}
	resp, err := c.Do(ctx, Request{Op: OpSemiRecs, Cond: cd.String(), Items: y.Slice()})
	if err != nil {
		return nil, err
	}
	return c.decodeTuples(resp.Tuples)
}

func (c *Client) decodeTuples(wts []WireTuple) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(wts))
	for i, wt := range wts {
		t, err := DecodeTuple(wt)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// Card implements source.Source.
func (c *Client) Card() (int, int, int) {
	return c.meta.Tuples, c.meta.Distinct, c.meta.Bytes
}

func (c *Client) decodeRelation(wts []WireTuple) (*relation.Relation, error) {
	rel := relation.NewRelation(c.schema)
	for _, wt := range wts {
		t, err := DecodeTuple(wt)
		if err != nil {
			return nil, err
		}
		if err := rel.Insert(t); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
