package wire

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fusionq/internal/obs"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// TestStatsRequestLine pins the bytes of the stats extension's request, the
// way TestRequestLines pins the v1 operations': the op alone, no field.
func TestStatsRequestLine(t *testing.T) {
	got, err := json.Marshal(encodeCall(source.Call{Op: source.OpStats}))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"stats"}`; string(got) != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// statsServer serves the first DMV source and returns a client of it, the
// served source, and a count of the requests the server saw for an op.
func statsServer(t *testing.T) (*Client, source.Source, func(op string) int64) {
	t.Helper()
	src := workload.DMV().Sources[0]
	reg := obs.NewRegistry()
	srv, err := ServeConfig(src, "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, src, func(op string) int64 { return reg.Counter(obs.MWireRequests, "op", op).Value() }
}

// TestStatsOverTheWire: a server advertises the extension, and the client's
// summary is the one the served source computes, shipped as one stats
// request and no load.
func TestStatsOverTheWire(t *testing.T) {
	cli, src, requests := statsServer(t)
	if !cli.meta.Stats {
		t.Fatal("current server must advertise the stats extension")
	}
	want, err := source.Summarize(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := source.Summarize(context.Background(), cli)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary over the wire %+v, at the source %+v", got, want)
	}
	if requests(OpStats) != 1 || requests(OpLoad) != 0 {
		t.Fatalf("server saw %d stats and %d lq requests, want 1 and 0", requests(OpStats), requests(OpLoad))
	}
}

// TestStatsFallbackWithoutAdvertisement: against a server that does not
// advertise the extension (a v1 peer from before it) the client loads the
// relation and summarizes it itself — the same summary — and never sends
// the op.
func TestStatsFallbackWithoutAdvertisement(t *testing.T) {
	cli, src, requests := statsServer(t)
	cli.meta.Stats = false
	want, err := source.Summarize(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := source.Summarize(context.Background(), cli)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback summary %+v, at the source %+v", got, want)
	}
	if requests(OpStats) != 0 || requests(OpLoad) != 1 {
		t.Fatalf("server saw %d stats and %d lq requests, want 0 and 1", requests(OpStats), requests(OpLoad))
	}
}

// TestStatsReplyMustCarryASummary: a peer that answers stats with anything
// but a summary is reported, not trusted with a nil.
func TestStatsReplyMustCarryASummary(t *testing.T) {
	_, err := decodeReply(source.OpStats, Response{Items: []string{"x7"}}, workload.DMVSchema())
	if err == nil || !strings.Contains(err.Error(), "no summary") {
		t.Fatalf("err = %v, want the missing summary reported", err)
	}
}
