package wire

// Client-side streaming selection over the chunking extension. A chunked sq
// holds the client's single connection only for the duration of the
// transfer: a background pump goroutine decodes chunks into a client-side
// buffer as fast as the server sends them and releases the connection at
// the final chunk, so a slow consumer never holds the connection (or a
// same-source exchange queued behind it) hostage — the decoupling that
// keeps a streaming executor's backpressure from deadlocking against the
// client's connection serialization. Worst case (consumer fully stalled)
// the buffer grows to the result size, i.e. no worse than a materialized
// Select; best case batches are consumed as they land. Each chunk's items
// are decoded into a pooled buffer (set.Alloc), which the stream lends to
// its consumer as that batch and gives back at the next Next or Close.

import (
	"context"
	"fmt"
	"net"
	"sync"

	"fusionq/internal/obs"
	"fusionq/internal/set"
)

// Stream sends req, which must ask for chunking (Request.Chunk), and
// returns an iterator over the response's item chunks, which must arrive
// sorted. The whole transfer is recorded as one wire span, ended when the
// final chunk lands.
func (c *Conn) Stream(ctx context.Context, req Request) (set.Iter, error) {
	_, sp := obs.StartSpan(ctx, obs.KindWire, c.wireNames.Of(req.Op, "-stream"))
	// The pump has no context of its own: it keeps this one, to classify a
	// failure and to graft the fragment riding the final chunk into its trace.
	st := &clientStream{c: c, ctx: ctx, sp: sp, notify: make(chan struct{}, 1)}
	// The connection slot is held until the pump finishes the transfer.
	if err := c.acquire(ctx); err != nil {
		sp.End(err)
		return nil, err
	}
	req.QueryID, req.Frag = obs.QueryID(ctx), c.meta.Fragments && sp != nil
	if err := c.send(ctx, req); err != nil {
		err = c.fail(ctx, err)
		c.release()
		sp.End(err)
		return nil, err
	}
	st.conn = c.conn
	st.wg.Add(1)
	go st.pump()
	return st, nil
}

// clientStream is one in-flight chunked transfer.
type clientStream struct {
	c    *Conn
	ctx  context.Context
	sp   *obs.Span
	conn net.Conn // snapshot for Close; the pump owns c.conn itself

	wg     sync.WaitGroup
	notify chan struct{}

	mu     sync.Mutex
	chunks [][]string
	lent   []string // the batch the consumer holds
	err    error
	eof    bool
	closed bool
}

// pump drains the server's chunks into the buffer. It runs holding the
// connection slot (acquired by Stream) and releases it when the
// transfer ends — the connection left in sync for the next exchange on
// success, dropped on failure.
func (st *clientStream) pump() {
	defer st.wg.Done()
	c := st.c
	last, any := "", false
	var perr error
	var frag *Fragment
	for {
		budget := MaxFrameBytes
		var resp Response
		err := c.in.read(&resp, &budget)
		if err != nil {
			err = c.fail(st.ctx, err)
			st.mu.Lock()
			if !st.closed {
				perr = err
			}
			st.mu.Unlock()
			break
		}
		if resp.Error != "" {
			set.Release(set.FromSorted(resp.Items))
			perr = fmt.Errorf("wire: remote %s: %s", c.meta.Name, resp.Error)
			break
		}
		bad := ""
		for _, v := range resp.Items {
			if any && v <= last {
				bad = v
				break
			}
			last, any = v, true
		}
		if bad != "" {
			set.Release(set.FromSorted(resp.Items))
			c.drop()
			perr = fmt.Errorf("wire: %s: unsorted chunk (%q after %q)", c.addr, bad, last)
			break
		}
		if len(resp.Items) > 0 {
			st.mu.Lock()
			if st.closed {
				set.Release(set.FromSorted(resp.Items))
			} else {
				st.chunks = append(st.chunks, resp.Items)
			}
			st.mu.Unlock()
			st.kick()
		}
		if resp.Frag != nil {
			frag = resp.Frag // rides the final chunk
		}
		if !resp.More {
			break
		}
	}
	st.mu.Lock()
	st.err = perr
	st.eof = true
	st.mu.Unlock()
	st.kick()
	st.sp.End(perr)
	if perr == nil {
		c.graftFragment(st.sp, frag)
	}
	c.release()
}

// kick wakes a consumer blocked in Next, without blocking the pump.
func (st *clientStream) kick() {
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

// Next pops the next buffered chunk, waiting for the pump when the buffer
// is empty. The chunk lent by the call before goes back to the pool.
func (st *clientStream) Next(ctx context.Context) ([]string, error) {
	st.mu.Lock()
	set.Release(set.FromSorted(st.lent))
	st.lent = nil
	st.mu.Unlock()
	for {
		st.mu.Lock()
		switch {
		case len(st.chunks) > 0:
			batch := st.chunks[0]
			st.lent = batch
			st.chunks[0] = nil
			st.chunks = st.chunks[1:]
			st.mu.Unlock()
			return batch, nil
		case st.err != nil:
			err := st.err
			st.mu.Unlock()
			return nil, err
		case st.eof:
			st.mu.Unlock()
			return nil, nil
		}
		st.mu.Unlock()
		select {
		case <-st.notify:
		case <-ctx.Done():
			return nil, fmt.Errorf("wire: %s: %w", st.c.addr, ctx.Err())
		}
	}
}

// Close abandons the stream. If the transfer is still in flight the
// connection is dropped to unblock the pump (the client reconnects on its
// next operation); a completed transfer costs nothing. Close waits for the
// pump to exit, so after it returns the client is free for other work.
func (st *clientStream) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	finished := st.eof
	for _, buf := range st.chunks {
		set.Release(set.FromSorted(buf))
	}
	set.Release(set.FromSorted(st.lent))
	st.chunks, st.lent = nil, nil
	st.mu.Unlock()
	if !finished {
		_ = st.conn.Close()
	}
	st.wg.Wait()
	return nil
}
