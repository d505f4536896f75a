package wire

import (
	"context"
	"strconv"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/obs"
	"fusionq/internal/workload"
)

// TestFragmentsOnlyForTracedCalls: a fragment is asked for only when the
// call has a span to graft it under. An untraced call gets none, so the
// server encodes none and the client decodes none; a traced call grafts
// exactly one.
func TestFragmentsOnlyForTracedCalls(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.meta.Fragments {
		t.Fatal("current server must advertise the fragment extension")
	}
	req := Request{Op: OpSelect, Cond: cond.MustParse("V = 'dui'").String()}

	untraced := obs.With(context.Background(), &obs.Obs{QueryID: "q-untraced"})
	resp, err := cli.Do(untraced, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Frag != nil {
		t.Fatalf("an untraced call got a fragment: %+v", resp.Frag)
	}

	tr := obs.NewTrace()
	traced := obs.With(context.Background(), &obs.Obs{QueryID: "q-traced", Trace: tr})
	if resp, err = cli.Do(traced, req); err != nil {
		t.Fatal(err)
	}
	if resp.Frag == nil {
		t.Fatal("a traced call got no fragment")
	}
	servers := 0
	for _, sp := range tr.Export() {
		if sp.Kind == obs.KindServer {
			servers++
		}
	}
	if servers != 1 {
		t.Fatalf("a traced call grafted %d server spans, want 1", servers)
	}
}

// TestFragmentContents checks what the server actually reports: the fragment
// names the source and op, its stage timings sum within the total, and its
// byte counts match the semantic payload sizes of the exchange.
func TestFragmentContents(t *testing.T) {
	sc := workload.DMV()
	srv, err := ServeConfig(sc.Sources[0], "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.meta.Fragments {
		t.Fatal("current server must advertise the fragment extension")
	}

	condText := cond.MustParse("V = 'dui'").String()
	tr := obs.NewTrace()
	ctx := obs.With(context.Background(), &obs.Obs{QueryID: "q-frag", Trace: tr})
	resp, err := cli.Do(ctx, Request{Op: OpSelect, Cond: condText})
	if err != nil {
		t.Fatal(err)
	}

	f := resp.Frag
	if f == nil {
		t.Fatal("no fragment on the response")
	}
	if f.Source != "R1" || f.Op != OpSelect {
		t.Fatalf("fragment identity = %s/%s", f.Source, f.Op)
	}
	if f.QueueUS < 0 || f.ParseUS < 0 || f.ScanUS < 0 || f.ChunkUS < 0 {
		t.Fatalf("negative stage timing: %+v", f)
	}
	if sum := f.QueueUS + f.ParseUS + f.ScanUS + f.ChunkUS; sum > f.TotalUS+1000 {
		t.Fatalf("stage sum %dus far exceeds total %dus", sum, f.TotalUS)
	}
	if f.BytesIn != len(condText) {
		t.Fatalf("fragment bytesIn = %d, want the condition's %d", f.BytesIn, len(condText))
	}
	wantOut := 0
	for _, item := range resp.Items {
		wantOut += len(item)
	}
	if f.BytesOut != wantOut {
		t.Fatalf("fragment bytesOut = %d, want the items' %d", f.BytesOut, wantOut)
	}

	// The grafted span carries the breakdown as attributes.
	spans := tr.Export()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	frag := spans[1]
	if frag.Kind != obs.KindServer || frag.Parent != spans[0].ID {
		t.Fatalf("grafted span = %+v", frag)
	}
	for _, key := range []string{"queueUs", "parseUs", "scanUs", "chunkUs", "queueDepth", "bytesIn", "bytesOut"} {
		if _, err := strconv.Atoi(frag.Attrs[key]); err != nil {
			t.Fatalf("grafted span attr %q = %q: %v", key, frag.Attrs[key], err)
		}
	}
	if frag.Attrs["op"] != OpSelect || frag.Attrs["source"] != "R1" {
		t.Fatalf("grafted span attrs = %+v", frag.Attrs)
	}
}
