package wire_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// stubPeer accepts one connection, answers the first request line with
// reply, then hands the connection (and a reader positioned after that
// request) to then. It returns the address and a channel carrying then's
// verdict.
func stubPeer(t *testing.T, reply string, then func(conn net.Conn, r *bufio.Reader) error) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	verdict := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			verdict <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			verdict <- err
			return
		}
		if _, err := fmt.Fprintln(conn, reply); err != nil {
			verdict <- err
			return
		}
		verdict <- then(conn, r)
	}()
	return ln.Addr().String(), verdict
}

// sawEOF is the stub's check that its client hung up.
func sawEOF(conn net.Conn, r *bufio.Reader) error {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		return fmt.Errorf("read after the failed handshake = %v, want EOF: the client leaked the connection", err)
	}
	return nil
}

// TestFailedHandshakeClosesConnection: whatever makes the meta handshake
// fail, the dialer (wire.DialContext for the source peer, service.DialService
// for the service peer) closes the socket — the server side observes EOF.
func TestFailedHandshakeClosesConnection(t *testing.T) {
	meta := func(rest string) string {
		return `{"meta":{"merge":"L","name":"x",` + rest + `}}`
	}
	replies := map[string]map[string]string{
		"source": {
			"bad schema":                meta(`"version":1,"columns":[{"name":"L","kind":"nope"}]`),
			"mediator service metadata": meta(`"version":1,"columns":[{"name":"L","kind":"string"}],"queries":true`),
		},
		"service": {
			"source server metadata": meta(`"version":1,"columns":[{"name":"L","kind":"string"}]`),
		},
	}
	for _, p := range peers {
		replies[p.name]["remote error"] = `{"error":"boom"}`
		replies[p.name]["no metadata"] = `{}`
		replies[p.name]["protocol too new"] = meta(`"version":99,"columns":[{"name":"L","kind":"string"}],"queries":true`)
		for name, reply := range replies[p.name] {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				addr, verdict := stubPeer(t, reply, sawEOF)
				if _, closeCli, err := p.dial(context.Background(), addr); err == nil {
					closeCli()
					t.Fatal("handshake succeeded")
				}
				if err := <-verdict; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDialRejectsWrongKindOfPeer: each dialer refuses, at dial time, a live
// server of the other kind, naming what it found.
func TestDialRejectsWrongKindOfPeer(t *testing.T) {
	quiet := wire.Config{Logf: func(string, ...interface{}) {}}
	for i, want := range []string{"not a source server", "not a mediator service"} {
		cli, other := peers[i], peers[1-i]
		srv := other.serve(t, newGate(workload.DMV().Sources[0]), quiet)
		defer srv.Close()
		_, closeCli, err := cli.dial(context.Background(), srv.Addr())
		if err == nil {
			closeCli()
			t.Fatalf("the %s client accepted a %s server", cli.name, other.name)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("the %s client against a %s server: %v, want it to say %q", cli.name, other.name, err, want)
		}
	}
}

const okMeta = `{"meta":{"version":1,"name":"stub","merge":"L","columns":[{"name":"L","kind":"string"}]}}`

func anyPeer(wire.Meta) error { return nil }

// framePadded is a frame of exactly n bytes, newline included: open and
// shut around a run of filler.
func framePadded(open, shut string, n int) string {
	return open + strings.Repeat("a", n-len(open)-len(shut)-1) + shut + "\n"
}

// hungUp is a stub's check that its client dropped the connection: the
// read ends, by EOF or by a reset when bytes of the stub's were left unread.
func hungUp(conn net.Conn, r *bufio.Reader) error {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("read after the overrun = %v: the client kept the connection", err)
	}
	return nil
}

// TestClientFrameBudget: a peer cannot make a client buffer without bound,
// neither with one huge frame nor with chunks that never end; the client
// reports ErrFrameTooLarge (not a transient failure: a retry would repeat
// it) and hangs up. The bound is exact, on one frame and on the frames of
// one answer together: MaxFrameBytes are read, one byte more is not.
func TestClientFrameBudget(t *testing.T) {
	flood := func(open, body string) func(net.Conn, *bufio.Reader) error {
		return func(conn net.Conn, r *bufio.Reader) error {
			if _, err := r.ReadString('\n'); err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := io.WriteString(conn, open); err != nil {
				return err
			}
			for sent := 0; sent <= 3*wire.MaxFrameBytes; sent += len(body) {
				if _, err := io.WriteString(conn, body); err != nil {
					return nil // the client hung up
				}
			}
			return errors.New("the client took three budgets' worth of bytes without hanging up")
		}
	}
	// answer replies with the given frames and, when they overrun the
	// budget, expects to be hung up on.
	answer := func(overrun bool, frames ...string) func(net.Conn, *bufio.Reader) error {
		return func(conn net.Conn, r *bufio.Reader) error {
			if _, err := r.ReadString('\n'); err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			for _, frame := range frames {
				if _, err := io.WriteString(conn, frame); err != nil {
					if overrun {
						return nil // the client hung up mid-frame
					}
					return err
				}
			}
			if overrun {
				return hungUp(conn, r)
			}
			return nil
		}
	}
	const half = wire.MaxFrameBytes / 2
	for name, tc := range map[string]struct {
		then  func(net.Conn, *bufio.Reader) error
		items int // of an answer within budget; zero for an overrun
	}{
		"one endless frame":  {then: flood(`{"items":["`, strings.Repeat("a", 1<<16))},
		"chunks without end": {then: flood("", `{"items":["`+strings.Repeat("a", 1<<16)+`"],"more":true}`+"\n")},
		"a frame of exactly the budget": {items: 1,
			then: answer(false, framePadded(`{"items":["`, `"]}`, wire.MaxFrameBytes))},
		"a frame one byte over": {
			then: answer(true, framePadded(`{"items":["`, `"]}`, wire.MaxFrameBytes+1))},
		"chunks of exactly the budget together": {items: 2,
			then: answer(false, framePadded(`{"items":["`, `"],"more":true}`, half), framePadded(`{"items":["b`, `"]}`, half))},
		"chunks one byte over together": {
			then: answer(true, framePadded(`{"items":["`, `"],"more":true}`, half), framePadded(`{"items":["b`, `"]}`, half+1))},
	} {
		t.Run(name, func(t *testing.T) {
			addr, verdict := stubPeer(t, okMeta, tc.then)
			conn, err := wire.DialConn(context.Background(), addr, anyPeer)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			resp, err := conn.Do(ctx, wire.Request{Op: wire.OpQuery, Chunk: 1})
			switch {
			case tc.items > 0:
				if err != nil || len(resp.Items) != tc.items {
					t.Fatalf("Do = %d items, %v; want %d items of an answer within budget", len(resp.Items), err, tc.items)
				}
			case !errors.Is(err, wire.ErrFrameTooLarge):
				t.Fatalf("Do = %v, want ErrFrameTooLarge", err)
			case source.IsTransient(err):
				t.Fatalf("%v is classified transient", err)
			}
			if err := <-verdict; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServerFrameBudget: both kinds of server hang up on a request frame
// that overruns the budget instead of buffering it, and the bound is exact:
// a request of MaxFrameBytes is answered, one a byte longer is not.
func TestServerFrameBudget(t *testing.T) {
	for _, p := range peers {
		t.Run(p.name, func(t *testing.T) {
			logged := make(chan string, 16)
			srv := p.serve(t, newGate(workload.DMV().Sources[0]), wire.Config{Logf: func(format string, args ...interface{}) {
				select {
				case logged <- fmt.Sprintf(format, args...):
				default:
				}
			}})
			defer srv.Close()
			wantOverrunLogged := func() {
				t.Helper()
				if line := <-logged; !strings.Contains(line, wire.ErrFrameTooLarge.Error()) {
					t.Fatalf("server logged %q, want the frame-budget error", line)
				}
			}

			conn := rawConn(t, srv.Addr(), false)
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			hungUp := false
			frame := `{"op":"sq","cond":"`
			for sent := 0; sent <= 3*wire.MaxFrameBytes; sent += len(frame) {
				if _, err := io.WriteString(conn, frame); err != nil {
					hungUp = true
					break
				}
				frame = strings.Repeat("a", 1<<16)
			}
			if !hungUp {
				t.Fatal("the server took three budgets' worth of bytes without hanging up")
			}
			wantOverrunLogged()

			// The boundary, on one connection: the padding rides a member
			// the meta operation ignores.
			conn = rawConn(t, srv.Addr(), false)
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			r := bufio.NewReader(conn)
			if _, err := io.WriteString(conn, framePadded(`{"op":"meta","cond":"`, `"}`, wire.MaxFrameBytes)); err != nil {
				t.Fatal(err)
			}
			if line, err := r.ReadString('\n'); err != nil || !strings.Contains(line, `"meta":{`) {
				t.Fatalf("a request of exactly the budget was answered %q, %v", line, err)
			}
			// The server stops reading at the budget, so the tail of the
			// write may meet a reset: only the hang-up is asserted.
			_, _ = io.WriteString(conn, framePadded(`{"op":"meta","cond":"`, `"}`, wire.MaxFrameBytes+1))
			if line, err := r.ReadString('\n'); err == nil {
				t.Fatalf("a request one byte over the budget was answered %q", line)
			}
			wantOverrunLogged()
		})
	}
}
