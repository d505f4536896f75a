package catalog

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

const (
	r1CSV = "L,V,D\nJ55,dui,1993\nT21,sp,1994\nT80,dui,1993\n"
	r2CSV = "L,V,D\nT21,dui,1996\nJ55,sp,1996\nT11,sp,1993\n"
	r3CSV = "L,V,D\nT21,sp,1993\nS07,sp,1996\nS07,sp,1993\n"
)

func writeCatalogDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{"r1.csv": r1CSV, "r2.csv": r2CSV, "r3.csv": r3CSV} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadAndBuild(t *testing.T) {
	dir := writeCatalogDir(t)
	catJSON := `{
	  "merge": "L",
	  "sources": [
	    {"csv": "r1.csv", "caps": "native", "bloom": true,
	     "link": {"latencyMs": 10, "bytesPerSec": 65536, "overheadMs": 5}},
	    {"name": "nv", "csv": "r2.csv", "caps": "bindings"},
	    {"csv": "r3.csv", "caps": "none"}
	  ]
	}`
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte(catJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cat.Sources[0].Name != "r1" {
		t.Fatalf("defaulted name = %q, want file basename", cat.Sources[0].Name)
	}
	m, closer, err := cat.Build(t.Context())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer closer()
	if got := m.SourceNames(); len(got) != 3 || got[1] != "nv" {
		t.Fatalf("SourceNames = %v", got)
	}
	if !m.Sources()[0].Caps().BloomSemijoin {
		t.Fatal("bloom capability not applied")
	}
	ans, err := m.Query(t.Context(), `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}
}

func TestBuildWithRemoteSource(t *testing.T) {
	dir := writeCatalogDir(t)
	sc := workload.DMV()
	srv, err := wire.ServeConfig(source.NewWrapper("remote3", source.NewRowBackend(sc.Relations[2]),
		source.Capabilities{NativeSemijoin: true, PassedBindings: true}), "127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	catJSON := `{
	  "merge": "L",
	  "sources": [
	    {"csv": "r1.csv"},
	    {"csv": "r2.csv"},
	    {"remote": "` + srv.Addr() + `"}
	  ]
	}`
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte(catJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, closer, err := cat.Build(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	ans, err := m.Query(t.Context(), `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}
}

func TestBuildReplicatedSource(t *testing.T) {
	dir := writeCatalogDir(t)
	sc := workload.DMV()
	srv, err := wire.ServeConfig(source.NewWrapper("ca_b", source.NewRowBackend(sc.Relations[0]),
		source.Capabilities{NativeSemijoin: true, PassedBindings: true}), "127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	catJSON := `{
	  "merge": "L",
	  "sources": [
	    {"name": "ca_a", "csv": "r1.csv", "replicaOf": "ca"},
	    {"name": "ca_b", "remote": "` + srv.Addr() + `", "replicaOf": "ca"},
	    {"csv": "r2.csv"},
	    {"csv": "r3.csv"}
	  ]
	}`
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte(catJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m, closer, err := cat.Build(t.Context())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer closer()
	// The mediator plans against the logical name at the group's position;
	// replicas never appear in the roster.
	if got := m.SourceNames(); len(got) != 3 || got[0] != "ca" || got[1] != "r2" || got[2] != "r3" {
		t.Fatalf("SourceNames = %v, want [ca r2 r3]", got)
	}
	logical, ok := m.Sources()[0].(*fabric.Logical)
	if !ok {
		t.Fatalf("roster source 0 is %T, want *fabric.Logical", m.Sources()[0])
	}
	if got := len(logical.Endpoints()); got != 2 {
		t.Fatalf("logical endpoints = %d, want 2", got)
	}
	ans, err := m.Query(t.Context(), `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}
}

// TestBuildReplicaDeadAtAssembly: a replica that is down when the catalog
// is built must not block assembly — its group only needs one live member —
// but a group with no reachable replica at all must fail.
func TestBuildReplicaDeadAtAssembly(t *testing.T) {
	dir := writeCatalogDir(t)
	sc := workload.DMV()
	srv, err := wire.ServeConfig(source.NewWrapper("ca_b", source.NewRowBackend(sc.Relations[0]),
		source.Capabilities{NativeSemijoin: true, PassedBindings: true}), "127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close() // nothing listens here now: dials are refused

	catJSON := `{
	  "merge": "L",
	  "sources": [
	    {"name": "ca_a", "remote": "` + deadAddr + `", "replicaOf": "ca"},
	    {"name": "ca_b", "remote": "` + srv.Addr() + `", "replicaOf": "ca"},
	    {"csv": "r2.csv"},
	    {"csv": "r3.csv"}
	  ]
	}`
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, []byte(catJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m, closer, err := cat.Build(t.Context())
	if err != nil {
		t.Fatalf("Build with one dead replica: %v", err)
	}
	defer closer()
	logical, ok := m.Sources()[0].(*fabric.Logical)
	if !ok {
		t.Fatalf("roster source 0 is %T, want *fabric.Logical", m.Sources()[0])
	}
	if got := len(logical.Endpoints()); got != 1 {
		t.Fatalf("logical endpoints = %d, want 1 (the survivor)", got)
	}
	ans, err := m.Query(t.Context(), `SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.New("J55", "T21"); !ans.Items.Equal(want) {
		t.Fatalf("answer = %v, want %v", ans.Items, want)
	}

	// Every replica dead: assembly must fail, naming the logical source.
	allDead := `{
	  "merge": "L",
	  "sources": [
	    {"name": "ca_a", "remote": "` + deadAddr + `", "replicaOf": "ca"},
	    {"csv": "r2.csv"}
	  ]
	}`
	cat2, err := Parse([]byte(allDead))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cat2.dir = dir
	if _, _, err := cat2.Build(t.Context()); err == nil || !strings.Contains(err.Error(), `"ca"`) {
		t.Fatalf("Build with every replica dead = %v, want error naming the group", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            `{}`,
		"no locator":       `{"sources": [{"name": "x"}]}`,
		"both locators":    `{"sources": [{"csv": "a.csv", "remote": "x:1"}]}`,
		"bad caps":         `{"sources": [{"csv": "a.csv", "caps": "wizard"}]}`,
		"duplicate":        `{"sources": [{"csv": "a.csv", "name": "x"}, {"csv": "b.csv", "name": "x"}]}`,
		"unknown field":    `{"sources": [{"csv": "a.csv", "wat": 1}]}`,
		"not json":         `nope`,
		"nameless replica": `{"sources": [{"remote": "x:1", "replicaOf": "r"}]}`,
		"logical collides": `{"sources": [{"csv": "a.csv", "name": "r"}, {"csv": "b.csv", "name": "r_b", "replicaOf": "r"}]}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/catalog.json"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestBuildErrors(t *testing.T) {
	dir := writeCatalogDir(t)
	// Missing CSV.
	cat := &Catalog{Sources: []SourceSpec{{Name: "x", CSV: "missing.csv"}}, dir: dir}
	if _, _, err := cat.Build(t.Context()); err == nil {
		t.Error("missing csv should fail")
	}
	// Unreachable remote.
	cat = &Catalog{Sources: []SourceSpec{{Name: "x", Remote: "127.0.0.1:1"}}}
	if _, _, err := cat.Build(t.Context()); err == nil {
		t.Error("unreachable remote should fail")
	}
	// Incompatible schemas.
	if err := os.WriteFile(filepath.Join(dir, "other.csv"), []byte("K,W\nx,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat = &Catalog{Sources: []SourceSpec{{CSV: "r1.csv"}, {CSV: "other.csv"}}, dir: dir}
	if _, _, err := cat.Build(t.Context()); err == nil {
		t.Error("incompatible schemas should fail")
	}
}

func TestLinkSpec(t *testing.T) {
	var nilSpec *LinkSpec
	zero := &LinkSpec{}
	if nilSpec.Link() != zero.Link() {
		t.Fatal("nil and zero specs should both mean the default link")
	}
	l := (&LinkSpec{LatencyMs: 10, BytesPerSec: 1000, OverheadMs: 5}).Link()
	if l.Latency != 10*time.Millisecond || l.BytesPerSec != 1000 || l.RequestOverhead != 5*time.Millisecond {
		t.Fatalf("Link = %+v", l)
	}
	want := netsim.DefaultLink()
	want.MaxConns = 4
	if got := (&LinkSpec{MaxConns: 4}).Link(); got != want {
		t.Fatalf("maxConns alone: Link = %+v, want the default link with 4 connections", got)
	}
	if l := (&LinkSpec{LatencyMs: 10, MaxConns: 2}).Link(); l.Latency != 10*time.Millisecond || l.MaxConns != 2 {
		t.Fatalf("Link = %+v", l)
	}
}
