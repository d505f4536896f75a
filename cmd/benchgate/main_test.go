package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRestampKeepsOtherEntries: restamping one entry rewrites its bytes
// alone. The entries it does not name keep their bytes, spacing and digits
// included, and the file still parses to the same entries but the one.
func TestRestampKeepsOtherEntries(t *testing.T) {
	data := []byte(`{
  "a": {
    "stamp": {"seed": 1,   "seconds": 2},
    "metrics": {
      "allocs_per_query": 329.475000
    }
  },
  "b": {
    "stamp": {"seed": 1},
    "metrics": {
      "allocs_per_query": 139.05833333333334
    }
  },
  "c": {"stamp": {}, "metrics": {"allocs_per_query": 1e3}}
}
`)
	moved := point{Stamp: json.RawMessage(`{"seed":1,"seconds":2}`), Metrics: map[string]float64{"allocs_per_query": 112.9}}
	out, err := restamp(data, map[string]point{"b": moved})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := json.MarshalIndent(moved, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(data, []byte(`{
    "stamp": {"seed": 1}`))
	end := bytes.Index(data, []byte(`,
  "c"`))
	want := string(data[:start]) + string(entry) + string(data[end:])
	if string(out) != want {
		t.Fatalf("restamped file:\n%s\nwant:\n%s", out, want)
	}
	var before, after map[string]point
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &after); err != nil {
		t.Fatalf("restamped file does not parse: %v", err)
	}
	before["b"] = moved
	for name, p := range before {
		if !reflect.DeepEqual(p.Metrics, after[name].Metrics) {
			t.Errorf("entry %s: metrics %v, want %v", name, after[name].Metrics, p.Metrics)
		}
	}
	same, err := restamp(data, nil)
	if err != nil || !bytes.Equal(same, data) {
		t.Fatalf("restamping nothing changed the file (err %v):\n%s", err, same)
	}
}

// TestPickNames: -write's names select their workloads in the file's
// order, none selects every one, and a name the file lacks is an error.
func TestPickNames(t *testing.T) {
	names := []string{"answer-hot", "cold-distinct", "plan-reuse"}
	for _, tc := range []struct {
		only, want []string
	}{
		{nil, names},
		{[]string{"plan-reuse", "cold-distinct"}, []string{"cold-distinct", "plan-reuse"}},
	} {
		got, err := pick(append([]string(nil), names...), tc.only)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("pick(%q) = %q, %v; want %q", tc.only, got, err, tc.want)
		}
	}
	if _, err := pick(names, []string{"cold-distinct", "cold-distnct"}); err == nil || !strings.Contains(err.Error(), `"cold-distnct"`) {
		t.Errorf("pick of an unknown name: err = %v, want one naming it", err)
	}
}
