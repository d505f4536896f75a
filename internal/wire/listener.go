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
	in := frameReader{br: bufio.NewReader(conn)}
	var out []byte // the response frame being written, kept up to maxKeptBuffer
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
		// Each chunk is written as soon as it is encoded, so a chunking
		// client starts consuming items while later chunks are still being
		// written — the wire half of streaming execution.
		chunkStart := time.Now()
		chunks := chunkResponses(req, resp)
		for i := range chunks {
			if f := chunks[i].Frag; f != nil {
				// The handler's fragment rides the final chunk, so it can
				// account for the emission of every chunk before it.
				f.ChunkUS = time.Since(chunkStart).Microseconds()
				f.TotalUS = time.Since(recv).Microseconds()
			}
			if l.cfg.WriteTimeout > 0 {
				if err := conn.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout)); err != nil {
					return
				}
			}
			var err error
			if out, err = appendFrame(out[:0], &chunks[i]); err != nil {
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
		out = kept(out)
	}
}

// chunkResponses splits an item-carrying response into chunks when the
// client asked for chunking: the first of req.Chunk items, the later ones
// following set.Schedule (each double the one before, up to set.MaxGrowth
// times the first). Errors, non-item responses and unchunked requests pass
// through as a single response. Every chunk carries the query ID, its items
// and More (set on all but the last); everything else — the fragment, the
// cache annotations — rides the final chunk. A split response's items are
// encoded chunk by chunk: its Encoded array is of them all.
func chunkResponses(req Request, resp Response) []Response {
	if req.Chunk <= 0 || resp.Error != "" || len(resp.Items) <= req.Chunk {
		return []Response{resp}
	}
	items := resp.Items
	resp.Encoded = nil
	out := make([]Response, 0, int(set.Batches(float64(len(items)), req.Chunk)))
	sched := set.NewSchedule(req.Chunk)
	for n := sched.Next(); len(items) > n; n = sched.Next() {
		out = append(out, Response{QueryID: resp.QueryID, Items: items[:n:n], More: true})
		items = items[n:]
	}
	resp.Items = items
	return append(out, resp)
}
