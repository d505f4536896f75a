package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"fusionq/internal/obs"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// MaxFrameBytes bounds one frame read from a peer, newline included, and
// the sum of the frames Do reassembles an answer from. Peers are autonomous
// (Section 2.1), so a frame length is never taken on trust. The bound is
// exact: a frame of MaxFrameBytes is read, one byte more is refused before
// it is buffered.
const MaxFrameBytes = 16 << 20

// ErrFrameTooLarge reports a peer that exceeded MaxFrameBytes. The
// connection it was read from is dropped: the rest of the frame is unread.
var ErrFrameTooLarge = errors.New("wire: frame exceeds the byte budget")

// Conn is the client side of the protocol: one TCP connection carrying
// line-JSON frames, redialed on demand. It is what a source client
// (Client) and a mediator-service client (service.Client) both speak
// through; DESIGN.md "Transport" states its contract. Safe for concurrent
// use.
type Conn struct {
	addr string
	meta Meta

	// The names of the spans the connection records: its wire spans by
	// (op, "" or "-stream"), the server fragments grafted under them by
	// (op, source).
	wireNames, fragNames *obs.SpanNames

	// sem is the connection slot: a capacity-1 semaphore serializing use of
	// the single connection. A channel rather than a mutex so waiters honor
	// their context — a caller queued behind a stalled exchange can give up
	// instead of blocking until the peer's deadline fires — and so the slot
	// can be handed to the stream pump goroutine for a chunked transfer.
	sem  chan struct{}
	conn net.Conn
	in   frameReader
	out  []byte // the request frame being sent, kept up to maxKeptBuffer
	// own says the items of an answer come in a buffer from set.Alloc,
	// which the caller owns and may give back (a source client's, whose
	// answers source.Source makes the caller's); otherwise in a slice of
	// their own.
	own bool
}

// DialConn connects to addr and performs the meta handshake: the peer must
// answer OpMeta with metadata of a protocol version this build understands
// and pass check, which says what kind of peer the caller needs. A failed
// handshake always closes the socket.
func DialConn(ctx context.Context, addr string, check func(Meta) error) (*Conn, error) {
	return dialConn(ctx, addr, false, check)
}

// dialConn is DialConn for a connection whose answers are pooled or not
// (Conn.own).
func dialConn(ctx context.Context, addr string, own bool, check func(Meta) error) (*Conn, error) {
	c := newConn(addr)
	c.own = own
	resp, err := c.Do(ctx, Request{Op: OpMeta})
	switch {
	case err != nil:
	case resp.Meta == nil:
		err = fmt.Errorf("wire: server %s sent no metadata", addr)
	case resp.Meta.Version > ProtocolVersion:
		err = fmt.Errorf("wire: server %s speaks protocol v%d, this client supports up to v%d",
			addr, resp.Meta.Version, ProtocolVersion)
	default:
		c.meta = *resp.Meta
		err = check(c.meta)
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// newConn returns a connection to addr, not yet dialed. Until the handshake
// names the peer, errors name its address.
func newConn(addr string) *Conn {
	return &Conn{
		addr: addr, meta: Meta{Name: addr}, sem: make(chan struct{}, 1),
		wireNames: obs.NewSpanNames(func(op, kind string) string { return op + kind + " @ " + addr }),
		fragNames: obs.NewSpanNames(func(op, src string) string { return "server " + op + " @ " + src }),
	}
}

// acquire takes the connection slot, giving up when ctx is done; a context
// already dead sends nothing, so it costs no connection.
func (c *Conn) acquire(ctx context.Context) error {
	select {
	case c.sem <- struct{}{}:
		if ctx.Err() == nil {
			return nil
		}
		c.release()
	case <-ctx.Done():
	}
	return fmt.Errorf("wire: %s: %w", c.addr, ctx.Err())
}

// release returns the connection slot taken by acquire.
func (c *Conn) release() { <-c.sem }

// Close closes the connection. It has no context, so it waits its turn for
// the connection slot like any exchange.
func (c *Conn) Close() error {
	c.sem <- struct{}{}
	defer c.release()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// drop closes a connection that can no longer be trusted to be in sync, so
// the next send redials. Slot held.
func (c *Conn) drop() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// ctxErr returns the context error behind a failed exchange, if there is
// one. The connection's deadline is ctx's, and the kernel can enforce it
// before the runtime delivers ctx's own expiry, so a connection timeout
// counts as one.
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return ctx.Err()
}

// fail drops the connection, which after a failed exchange cannot be trusted
// to be in sync (a late response would desynchronize it), and classifies
// err. A failure the context's deadline or cancellation caused wraps ctx's
// error. Any other is transient (source.ErrTransient), so retry policies and
// replica failover engage — a refused dial is exactly how a dead replica
// presents to the fabric — unless the peer overran the frame budget, which
// a retry would only repeat.
func (c *Conn) fail(ctx context.Context, err error) error {
	c.drop()
	if ce := ctxErr(ctx, err); ce != nil {
		return fmt.Errorf("wire: %s: %w", c.addr, ce)
	}
	if errors.Is(err, ErrFrameTooLarge) {
		return fmt.Errorf("wire: %s: %w", c.addr, err)
	}
	return fmt.Errorf("wire: %s: %w: %w", c.addr, err, source.ErrTransient)
}

// send writes one request with ctx's deadline installed as the connection's
// read/write deadline, dialing first when the connection is down. Slot held.
func (c *Conn) send(ctx context.Context, req Request) error {
	if c.conn == nil {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		c.conn = conn
		c.in = frameReader{br: bufio.NewReader(conn), own: c.own}
	}
	// Without a deadline this is the zero time, which clears a prior call's.
	deadline, _ := ctx.Deadline()
	if err := c.conn.SetDeadline(deadline); err != nil {
		return err
	}
	req.ItemBlock = c.meta.ItemBlock
	out, err := appendFrame(c.out, &req, req.ItemBlock)
	if err != nil {
		return err
	}
	c.out = kept(out)
	_, err = c.conn.Write(out)
	return err
}

// Do sends one request and returns its response, reassembling a chunked
// answer (frames are read until one arrives without More). The context's
// query ID (obs.QueryID) rides along, so the server's log lines correlate
// with the mediator's trace; the exchange is recorded as a wire span, and a
// server that advertises the fragment extension is asked for its timing
// fragment, grafted under that span — when there is a span: an untraced
// call asks for no fragment, so neither end pays for one. A response
// carrying Error is returned together with a non-nil error, so callers can
// read its Code.
func (c *Conn) Do(ctx context.Context, req Request) (Response, error) {
	_, sp := obs.StartSpan(ctx, obs.KindWire, c.wireNames.Of(req.Op, ""))
	req.QueryID, req.Frag = obs.QueryID(ctx), c.meta.Fragments && sp != nil
	resp, err := c.do(ctx, req)
	sp.End(err)
	if err == nil {
		c.graftFragment(sp, resp.Frag)
	}
	return resp, err
}

func (c *Conn) do(ctx context.Context, req Request) (Response, error) {
	if err := c.acquire(ctx); err != nil {
		return Response{}, err
	}
	defer c.release()
	reused := c.conn != nil
	resp, err := c.exchange(ctx, req)
	if err != nil && reused && ctxErr(ctx, err) == nil && !errors.Is(err, ErrFrameTooLarge) {
		// A connection left over from an earlier call may have gone stale
		// (idle-reaped, peer restarted): retry once on a fresh one. If that
		// fails too, the error that broke the connection is the one reported.
		c.drop()
		first := err
		if resp, err = c.exchange(ctx, req); err != nil {
			err = fmt.Errorf("%w (then on a fresh connection: %v)", first, err)
		}
	}
	if err != nil {
		return Response{}, c.fail(ctx, err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("wire: remote %s: %s", c.meta.Name, resp.Error)
	}
	return resp, nil
}

// exchange sends req and reads its response frames up to the final one.
// The frames draw on one budget, so it bounds the reassembled answer: a
// peer that sends More forever cannot grow the item slice without bound.
// The chunks after the first are decoded into pooled buffers, kept until
// the final one has come, and the answer is then gathered into one slice:
// of exactly its size, or on a connection that owns its answers (own) a
// buffer from set.Alloc, as a one-frame answer's items already are.
func (c *Conn) exchange(ctx context.Context, req Request) (Response, error) {
	if err := c.send(ctx, req); err != nil {
		return Response{}, err
	}
	budget := MaxFrameBytes
	var resp Response
	if err := c.in.read(&resp, &budget); err != nil || !resp.More {
		return resp, err
	}
	first, n := resp.Items, len(resp.Items)
	var chunks []*[]string
	c.in.lend = true
	defer func() {
		c.in.lend = false
		for _, b := range chunks {
			set.PutBatch(b)
		}
		if c.own {
			set.Release(set.FromSorted(first))
		}
	}()
	for resp.More {
		resp = Response{}
		err := c.in.read(&resp, &budget)
		if buf := c.in.taken(resp.Items); buf != nil {
			chunks = append(chunks, buf)
		}
		if err != nil {
			return Response{}, err
		}
		n += len(resp.Items)
	}
	var items []string
	if c.own {
		items = set.Alloc(n)
	} else {
		items = make([]string, 0, n)
	}
	resp.Items = append(items, first...)
	for _, b := range chunks {
		resp.Items = append(resp.Items, *b...)
	}
	return resp, nil
}
