package wire_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/core"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/relation"
	"fusionq/internal/service"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// The transport is one implementation behind two kinds of peer, so every
// lifecycle case below runs against both: a source server with wire.Client
// and a mediator service with service.Client.

// gate is a source whose scans block while it is armed, which holds a
// request provably in flight on either kind of server.
type gate struct {
	source.Source
	armed   atomic.Bool
	entered chan struct{} // receives once per blocked scan
	open    chan struct{} // a blocked scan proceeds on receive
}

func newGate(src source.Source) *gate {
	return &gate{Source: src, entered: make(chan struct{}, 8), open: make(chan struct{})}
}

func (g *gate) wait(ctx context.Context) error {
	if !g.armed.Load() {
		return nil
	}
	g.entered <- struct{}{}
	select {
	case <-g.open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	if err := g.wait(ctx); err != nil {
		return set.Set{}, err
	}
	return g.Source.Select(ctx, c)
}

func (g *gate) Load(ctx context.Context) (*relation.Relation, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.Source.Load(ctx)
}

type lifecycleServer interface {
	Addr() string
	Close() error
	Shutdown(context.Context) error
}

// peer is one kind of server together with the client that speaks to it.
// call is one request that reaches the gated source.
type peer struct {
	name  string
	serve func(t *testing.T, g *gate, cfg wire.Config) lifecycleServer
	dial  func(ctx context.Context, addr string) (call func(context.Context) error, close func() error, err error)
}

var peers = []peer{
	{
		name: "source",
		serve: func(t *testing.T, g *gate, cfg wire.Config) lifecycleServer {
			srv, err := wire.ServeConfig(g, "127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		dial: func(ctx context.Context, addr string) (func(context.Context) error, func() error, error) {
			cli, err := wire.DialContext(ctx, addr)
			if err != nil {
				return nil, nil, err
			}
			return func(ctx context.Context) error {
				rel, err := cli.Load(ctx)
				if err == nil && rel.Len() == 0 {
					err = errors.New("empty relation")
				}
				return err
			}, cli.Close, nil
		},
	},
	{
		name: "service",
		serve: func(t *testing.T, g *gate, cfg wire.Config) lifecycleServer {
			m := core.New(workload.DMVSchema())
			m.SetNetwork(netsim.NewNetwork(11))
			m.SetMetrics(obs.NewRegistry())
			if err := m.AddSourceLink(g, netsim.Link{Latency: time.Millisecond, BytesPerSec: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			eng := service.NewEngine(m, service.Config{Metrics: obs.NewRegistry()})
			srv, err := service.Serve(eng, "127.0.0.1:0", service.ServerConfig{
				IdleTimeout: cfg.IdleTimeout, WriteTimeout: cfg.WriteTimeout, Logf: cfg.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		dial: func(ctx context.Context, addr string) (func(context.Context) error, func() error, error) {
			cli, err := service.DialService(ctx, addr)
			if err != nil {
				return nil, nil, err
			}
			return func(ctx context.Context) error {
				r, err := cli.Query(ctx, "t", []string{`V = 'dui'`}, false)
				if err == nil && len(r.Items) == 0 {
					err = errors.New("empty answer")
				}
				return err
			}, cli.Close, nil
		},
	},
}

// rawConn connects without a client and, when handshake is set, completes
// one meta exchange, after which the server has provably registered the
// connection.
func rawConn(t *testing.T, addr string, handshake bool) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if handshake {
		if _, err := fmt.Fprintln(conn, `{"op":"meta"}`); err != nil {
			t.Fatal(err)
		}
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

func TestLifecycle(t *testing.T) {
	type env struct {
		peer   peer
		gate   *gate
		reaped chan struct{} // receives when the server logs an idle reap
	}
	quiet := wire.Config{Logf: func(string, ...interface{}) {}}
	short := wire.Config{IdleTimeout: 50 * time.Millisecond}
	cases := []struct {
		name string
		cfg  wire.Config
		run  func(t *testing.T, e env, srv lifecycleServer)
	}{
		// A client that connects and then goes silent does not pin a
		// handler goroutine forever: the server hangs up after IdleTimeout.
		{"idle connection reclaimed", short, func(t *testing.T, e env, srv lifecycleServer) {
			conn := rawConn(t, srv.Addr(), false)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("read returned data from a server that should have hung up")
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server never closed the idle connection within 5s")
			}
		}},
		// A connection the server closed under the client (here: reaped as
		// idle) is redialed transparently by the next call.
		{"client reconnects", short, func(t *testing.T, e env, srv lifecycleServer) {
			call, closeCli, err := e.peer.dial(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer closeCli()
			if err := call(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Reaps logged so far precede the call's end; the next one is of
			// the connection the call just used.
			for len(e.reaped) > 0 {
				<-e.reaped
			}
			select {
			case <-e.reaped:
			case <-time.After(10 * time.Second):
				t.Fatal("server never reaped the idle connection")
			}
			if err := call(context.Background()); err != nil {
				t.Fatalf("call after the server closed the connection: %v", err)
			}
		}},
		// Graceful drain: a request in flight when Shutdown starts is
		// answered, Shutdown then returns without waiting for the client to
		// hang up, and new connections are refused.
		{"shutdown drains in-flight", quiet, func(t *testing.T, e env, srv lifecycleServer) {
			call, closeCli, err := e.peer.dial(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer closeCli()
			e.gate.armed.Store(true)
			called := make(chan error, 1)
			go func() { called <- call(context.Background()) }()
			<-e.gate.entered
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- srv.Shutdown(ctx) }()
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			e.gate.armed.Store(false)
			close(e.gate.open)
			if err := <-called; err != nil {
				t.Fatalf("in-flight call during Shutdown: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if _, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
				t.Fatal("server accepted a connection after Shutdown")
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("second Shutdown: %v", err)
			}
		}},
		// When the drain budget is already spent, Shutdown force-closes and
		// reports the ctx error (or nil, if the nudge drained first).
		{"shutdown with expired context forces", quiet, func(t *testing.T, e env, srv lifecycleServer) {
			rawConn(t, srv.Addr(), true)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("Shutdown = %v, want nil or context.Canceled", err)
			}
		}},
		// A context deadline that fires mid-exchange surfaces as
		// context.DeadlineExceeded, not a bare i/o timeout, and the
		// desynchronized connection is dropped: the next call redials.
		{"client deadline identified", quiet, func(t *testing.T, e env, srv lifecycleServer) {
			call, closeCli, err := e.peer.dial(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer closeCli()
			e.gate.armed.Store(true)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := call(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
			}
			<-e.gate.entered
			e.gate.armed.Store(false)
			close(e.gate.open) // the abandoned request's late answer goes nowhere
			if err := call(context.Background()); err != nil {
				t.Fatalf("call after the expired one: %v", err)
			}
			// So does one whose context is dead on arrival.
			if err := call(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
			}
		}},
	}
	for _, p := range peers {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				e := env{peer: p, gate: newGate(workload.DMV().Sources[0]), reaped: make(chan struct{}, 16)}
				cfg := tc.cfg
				if cfg.Logf == nil {
					cfg.Logf = func(format string, args ...interface{}) {
						if strings.Contains(format, "idle") {
							e.reaped <- struct{}{}
						}
					}
				}
				srv := p.serve(t, e.gate, cfg)
				defer srv.Close()
				tc.run(t, e, srv)
			})
		}
	}
}
