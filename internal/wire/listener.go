package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/set"
)

// DefaultIdleTimeout bounds how long a connected client may sit between
// requests before the server reclaims the connection. Without it a client
// that silently disappears (no FIN — a dropped laptop lid, a dead NAT
// entry) would leak a handler goroutine forever.
const DefaultIdleTimeout = 2 * time.Minute

// Config tunes a Listener.
type Config struct {
	// IdleTimeout is the per-connection read deadline between requests.
	// Zero means DefaultIdleTimeout; negative disables the timeout.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response. Zero means no limit.
	WriteTimeout time.Duration
	// Logf receives connection-level error messages and the per-request
	// correlation lines (qid=... op=...). Nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Metrics, when set, receives the server's wire metrics
	// (fq_wire_requests_total, fq_wire_errors_total, fq_wire_request_seconds)
	// and is installed in the dispatch context so decorators on the served
	// source (e.g. a server-side answer cache) emit theirs to it too.
	Metrics *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// Handler answers one request. Its context is the listener's: cancelled
// when the listener is force-closed, alive through a graceful Shutdown.
type Handler func(ctx context.Context, req Request) Response

// Listener is the server side of the protocol: it accepts TCP connections
// and, on each, reads request frames, hands them to its Handler one at a
// time and writes the response back, chunked when the request asked. A
// source server (Server) and a mediator service (service.Server) are both
// a Handler behind one; DESIGN.md "Transport" states its contract.
type Listener struct {
	ln      net.Listener
	cfg     Config
	handler Handler

	// baseCtx is cancelled on forced close, aborting in-flight handlers;
	// Shutdown leaves it alive so they can finish.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Listen starts serving h on addr (e.g. "127.0.0.1:0"), accepting
// connections in the background.
func Listen(addr string, cfg Config, h Handler) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	//fqlint:ignore ctxfirst the listener owns its root context; Close/Shutdown cancel it, not a caller.
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Metrics != nil {
		ctx = obs.With(ctx, &obs.Obs{Metrics: cfg.Metrics})
	}
	l := &Listener{
		ln:      ln,
		cfg:     cfg.withDefaults(),
		handler: h,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   map[net.Conn]struct{}{},
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listen address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Logf writes one line to the listener's log (Config.Logf).
func (l *Listener) Logf(format string, args ...interface{}) { l.cfg.Logf(format, args...) }

// Close force-stops the listener: it stops accepting, cancels in-flight
// handlers, closes live connections and waits for their goroutines.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.cancel()
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// Shutdown drains the listener gracefully: it stops accepting new
// connections, lets in-flight requests finish, and nudges idle connections
// closed. If ctx expires before the drain completes, remaining connections
// are force-closed and ctx's error is returned.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Wake connections blocked reading the next request; the read loop
	// treats the resulting timeout on a closed listener as a clean exit. A
	// handler mid-request is unaffected — its response write proceeds.
	for c := range l.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	l.mu.Unlock()
	lnErr := l.ln.Close()

	done := make(chan struct{})
	//fqlint:ignore nakedgo the watcher exits exactly when wg.Wait returns; both arms of the select below join it via done.
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		l.cancel()
		return lnErr
	case <-ctx.Done():
		l.mu.Lock()
		l.cancel()
		for c := range l.conns {
			_ = c.Close()
		}
		l.mu.Unlock()
		<-done
		return fmt.Errorf("wire: shutdown: %w", ctx.Err())
	}
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if !l.isClosed() && !errors.Is(err, net.ErrClosed) {
				l.cfg.Logf("wire: accept: %v", err)
			}
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn is the read loop of one registered connection.
func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		conn.Close()
	}()
	// A request's items are lent by the reader: the handler reads them
	// while it answers, and the buffer goes back once the answer is written
	// or the connection is given up.
	in := frameReader{br: bufio.NewReader(conn), lend: true}
	var w frameWriter
	defer w.held.Release()
	defer func() { set.PutBatch(in.lent) }()
	for {
		if l.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(l.cfg.IdleTimeout)); err != nil {
				return
			}
		}
		if l.isClosed() {
			return // a drain's nudge came before the deadline above replaced it
		}
		budget := MaxFrameBytes
		var req Request
		if err := in.read(&req, &budget); err != nil {
			switch {
			case l.isClosed():
			case errors.Is(err, os.ErrDeadlineExceeded):
				l.cfg.Logf("wire: closing idle connection %s", conn.RemoteAddr())
			case err != io.EOF && !errors.Is(err, net.ErrClosed):
				l.cfg.Logf("wire: decode: %v", err)
			}
			return
		}
		recv := time.Now()
		resp := l.handler(l.baseCtx, req)
		if l.baseCtx.Err() != nil {
			// Force-closed while the handler ran: its answer may be no more
			// than the cancellation, which is not the client's to read as a
			// remote error. Dropping the connection instead makes the
			// client see a dead server, a transient failure.
			if resp.Stream != nil {
				_ = resp.Stream.Close()
			}
			set.Release(resp.answer)
			return
		}
		ok := l.write(conn, req, resp, recv, &w)
		set.Release(resp.answer)
		set.PutBatch(in.lent)
		in.lent = nil
		if !ok {
			return
		}
	}
}

// frameWriter is a connection's response side: the frame being written,
// kept up to maxKeptBuffer between responses, and the pooled buffer that
// holds a chunk back while the next one is pulled. The response being
// encoded lives here too, because the encoder takes it by reference: a
// response on the stack would be moved to the heap, one allocation a frame.
type frameWriter struct {
	out   []byte
	held  set.Buffer
	frame Response
}

// write sends resp, the answer to req, and reports whether the connection
// is still in sync. An unchunked request, an error, a response without a
// stream whose items fit one chunk, goes out as one frame. Anything else is
// a stream of chunks (streamChunks): the response's Stream, or its items
// cut by set.Schedule from req.Chunk (IterOf), so a source server's streamed
// selection and fqd's materialized answer share one framing.
func (l *Listener) write(conn net.Conn, req Request, resp Response, recv time.Time, w *frameWriter) bool {
	defer func() { w.out = kept(w.out) }()
	chunkStart := time.Now()
	if resp.Stream == nil && (req.Chunk <= 0 || resp.Error != "" || len(resp.Items) <= req.Chunk) {
		return l.writeFrame(conn, req, resp, chunkStart, recv, w)
	}
	st := resp.Stream
	if st == nil {
		st = set.IterOf(set.FromSorted(resp.Items), req.Chunk)
	}
	defer st.Close()
	final := resp
	final.Stream, final.Encoded = nil, nil
	return l.streamChunks(conn, req, st, final, chunkStart, recv, w)
}

// streamChunks writes st's batches as the chunks of a response whose other
// members final carries: every chunk has the query ID, its items and More,
// set on all but the last, and the last has the rest — the fragment, the
// cache annotations. A batch is lent until the next pull, and whether a
// chunk is the last is known only at that pull, so each batch is held as a
// copy of its item headers (the items themselves are immutable) while the
// next is pulled. A stream that fails after chunks went out ends with an
// error frame; one that fails because the listener was force-closed ends
// with nothing, the connection dropped (serveConn).
func (l *Listener) streamChunks(conn net.Conn, req Request, st set.Iter, final Response, chunkStart, recv time.Time, w *frameWriter) bool {
	var held []string
	batch, err := st.Next(l.baseCtx)
	for err == nil && batch != nil {
		held = append(w.held.Take(len(batch)), batch...)
		if batch, err = st.Next(l.baseCtx); err != nil || batch == nil {
			break
		}
		chunk := Response{QueryID: final.QueryID, Items: held, More: true}
		if !l.writeFrame(conn, req, chunk, chunkStart, recv, w) {
			return false
		}
	}
	switch {
	case err != nil && l.baseCtx.Err() != nil:
		return false
	case err != nil:
		final = Response{QueryID: final.QueryID, Error: err.Error()}
	default:
		final.Items = held
	}
	return l.writeFrame(conn, req, final, chunkStart, recv, w)
}

// writeFrame writes one frame of the answer to req, its items in a block
// when req asked for blocks. The handler's fragment rides the final frame,
// so it completes it there: it can account for the emission of every chunk
// before it.
func (l *Listener) writeFrame(conn net.Conn, req Request, resp Response, chunkStart, recv time.Time, w *frameWriter) bool {
	if f := resp.Frag; f != nil {
		f.ChunkUS = time.Since(chunkStart).Microseconds()
		f.TotalUS = time.Since(recv).Microseconds()
	}
	if l.cfg.WriteTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout)); err != nil {
			return false
		}
	}
	w.frame = resp
	out, err := appendFrame(w.out[:0], &w.frame, req.ItemBlock)
	w.frame, w.out = Response{}, out
	if err != nil {
		return false
	}
	_, err = conn.Write(w.out)
	return err == nil
}
