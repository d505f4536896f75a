package service

import (
	"context"
	"fmt"
	"strings"

	"fusionq/internal/wire"
)

// QueryReply is one query's wire-level outcome as seen by a client.
type QueryReply struct {
	// Items are the answer's merge-attribute values.
	Items []string
	// PlanCached / AnswerCached echo the service's cache annotations.
	PlanCached   bool
	AnswerCached bool
}

// Client speaks the wire protocol's query extension to a service Server
// over one wire.Conn, which owns the connection's serialization, deadlines
// and reconnection. Safe for concurrent use.
type Client struct {
	// Chunk, when positive, asks the server to deliver answers in chunks of
	// at most this many items; the client reassembles them. Set it before
	// sharing the client across goroutines.
	Chunk int

	conn *wire.Conn
}

// DialService connects to a service server, verifying it speaks the query
// extension.
func DialService(ctx context.Context, addr string) (*Client, error) {
	conn, err := wire.DialConn(ctx, addr, func(m wire.Meta) error {
		if !m.Queries {
			return fmt.Errorf("service: server %s (%s) does not accept queries — it is a source server, not a mediator service",
				addr, m.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Query runs one fusion query for tenant. conds are textual conditions;
// stream asks the service for streaming execution. A shed query returns a
// *ShedError reconstructed from the response code; other remote errors are
// plain.
func (c *Client) Query(ctx context.Context, tenant string, conds []string, stream bool) (*QueryReply, error) {
	resp, err := c.conn.Do(ctx, wire.Request{Op: wire.OpQuery, Tenant: tenant, Conds: conds, Stream: stream, Chunk: c.Chunk})
	if err != nil {
		if reason, ok := strings.CutPrefix(resp.Code, "shed:"); ok {
			return nil, &ShedError{Tenant: tenant, Reason: ShedReason(reason)}
		}
		return nil, err
	}
	return &QueryReply{Items: resp.Items, PlanCached: resp.PlanCached, AnswerCached: resp.AnswerCached}, nil
}
