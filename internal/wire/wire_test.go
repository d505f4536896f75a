package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/optimizer"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/stats"
	"fusionq/internal/workload"
)

// startDMVServers serves the three Figure 1 relations over TCP and returns
// connected clients.
func startDMVServers(t *testing.T) []source.Source {
	t.Helper()
	sc := workload.DMV()
	clients := make([]source.Source, len(sc.Sources))
	for j, src := range sc.Sources {
		srv, err := ServeConfig(src, "127.0.0.1:0", Config{})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		cli, err := DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { cli.Close() })
		clients[j] = cli
	}
	return clients
}

func TestMetaRoundTrip(t *testing.T) {
	clients := startDMVServers(t)
	c := clients[0]
	if c.Name() != "R1" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Schema().Merge() != "L" || c.Schema().NumColumns() != 3 {
		t.Fatalf("Schema = %s", c.Schema())
	}
	if !c.Caps().NativeSemijoin {
		t.Fatalf("Caps = %+v", c.Caps())
	}
	tuples, distinct, bytes := c.Card()
	if tuples != 3 || distinct != 3 || bytes <= 0 {
		t.Fatalf("Card = %d,%d,%d", tuples, distinct, bytes)
	}
}

func TestRemoteConditionError(t *testing.T) {
	clients := startDMVServers(t)
	_, err := clients[0].Select(context.Background(), cond.MustParse("Nope = 1"))
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("err = %v, want remote error", err)
	}
	// The connection stays usable after a remote error.
	if _, err := clients[0].Select(context.Background(), cond.MustParse("V = 'dui'")); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

// TestEndToEndOverTCP runs the full optimize-execute pipeline against
// remote sources: the integration path a real deployment would use.
func TestEndToEndOverTCP(t *testing.T) {
	clients := startDMVServers(t)
	sc := workload.DMV()
	profiles := make([]stats.SourceProfile, len(clients))
	for j, c := range clients {
		profiles[j] = stats.SourceProfile{
			Name: c.Name(), PerQuery: 10, PerItemSent: 1, PerItemRecv: 1, PerByteLoad: 0.01,
			Support: stats.SupportOf(c.Caps()),
		}
	}
	table, err := stats.BuildFromSources(context.Background(), sc.Conds, clients, profiles)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(clients))
	for j, c := range clients {
		names[j] = c.Name()
	}
	pr := &optimizer.Problem{Conds: sc.Conds, Sources: names, Table: table}
	res, err := optimizer.SJAPlus(pr)
	if err != nil {
		t.Fatal(err)
	}
	ex := &exec.Executor{Sources: clients}
	got, err := ex.Run(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("run over TCP: %v\nplan:\n%s", err, res.Plan)
	}
	if want := set.New("J55", "T21"); !got.Answer.Equal(want) {
		t.Fatalf("answer = %v, want %v", got.Answer, want)
	}
	// Second phase over the wire.
	full, err := exec.FetchAnswer(context.Background(), got.Answer, clients)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 5 {
		t.Fatalf("phase two fetched %d tuples, want 5", full.Len())
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	tup := relation.Tuple{
		relation.String("J55"), relation.Int(42), relation.Float(2.5), relation.Bool(true),
	}
	wt := EncodeTuple(tup)
	back, err := DecodeTuple(wt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tup {
		if !back[i].Equal(tup[i]) || back[i].Kind() != tup[i].Kind() {
			t.Fatalf("column %d: %v != %v", i, back[i], tup[i])
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, err := DecodeTuple(WireTuple{{Kind: "nope", Raw: "x"}}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := DecodeTuple(WireTuple{{Kind: "int", Raw: "abc"}}); err == nil {
		t.Fatal("bad int should fail")
	}
	if _, err := DecodeTuple(WireTuple{{Kind: "int", Raw: "2.5"}}); err == nil {
		t.Fatal("kind mismatch should fail")
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	schema := workload.DMVSchema()
	back, err := DecodeSchema("L", EncodeSchema(schema))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Compatible(back) {
		t.Fatalf("schema round trip: %s != %s", back, schema)
	}
	if _, err := DecodeSchema("L", []WireCol{{Name: "L", Kind: "nope"}}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestServerUnknownOp(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Do(context.Background(), Request{Op: "bogus"}); err == nil {
		t.Fatal("unknown op should error")
	}
}

// TestConcurrentClientsAndCalls stresses one server with several clients
// and several goroutines per client; the per-client mutex serializes each
// connection and the server handles connections independently.
func TestConcurrentClientsAndCalls(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 4; c++ {
		cli, err := DialContext(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(cli *Client) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got, err := cli.Select(context.Background(), cond.MustParse("V = 'dui'"))
					if err != nil {
						errs <- err
						return
					}
					if !got.Equal(set.New("J55", "T80")) {
						errs <- fmt.Errorf("wrong answer %v", got)
						return
					}
				}
			}(cli)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestProtocolVersionAdvertised(t *testing.T) {
	clients := startDMVServers(t)
	if v := clients[0].(*Client).meta.Version; v != ProtocolVersion {
		t.Fatalf("advertised version = %d, want %d", v, ProtocolVersion)
	}
}

// TestProtocolVersionTooNew: a server speaking a newer protocol revision is
// refused at dial time.
func TestProtocolVersionTooNew(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := json.NewDecoder(conn)
		enc := json.NewEncoder(conn)
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		enc.Encode(Response{Meta: &Meta{
			Version: ProtocolVersion + 1,
			Name:    "future",
			Merge:   "L",
			Columns: []WireCol{{Name: "L", Kind: "string"}},
		}})
	}()
	if _, err := DialContext(context.Background(), ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("err = %v, want protocol-version refusal", err)
	}
}
