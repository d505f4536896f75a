package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"fusionq/internal/obs"
	"fusionq/internal/service"
)

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestAdminServesTheMediatorsTraces: the admin listener of the process that
// serves queries answers /debug/* from the serving mediator's flight
// recorder. A query run over TCP is found in the index and its trace fetched
// by qid. The recorder keeps one clean fast query in sixteen, so the query is
// repeated (answer cache off, every one executes) until the index has one.
func TestAdminServesTheMediatorsTraces(t *testing.T) {
	srv, admin, err := start(options{
		addr: "127.0.0.1:0", admin: "127.0.0.1:0",
		deploy:      service.DeployConfig{Scenario: "dmv", Seed: 1},
		algo:        "sja+",
		maxInflight: 2, answerEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer admin.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cli, err := service.DialService(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	base := "http://" + admin.Addr()
	var index struct {
		Traces []obs.RecordSummary `json:"traces"`
	}
	for i := 0; i < 16 && len(index.Traces) == 0; i++ {
		reply, err := cli.Query(ctx, "t", []string{"V = 'dui'", "V = 'sp'"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(reply.Items) != "[J55 T21]" {
			t.Fatalf("answer = %v, want [J55 T21]", reply.Items)
		}
		getJSON(t, base+"/debug/traces", &index)
	}
	if len(index.Traces) == 0 {
		t.Fatal("/debug/traces is empty after sixteen executed queries: the admin listener does not read the serving mediator's recorder")
	}
	qid := index.Traces[0].QueryID
	var record obs.QueryRecord
	getJSON(t, base+"/debug/trace?qid="+qid, &record)
	if record.QueryID != qid || record.Status != "ok" || record.Items != 2 || len(record.Spans) == 0 {
		t.Fatalf("trace %s = status %q, %d items, %d spans", qid, record.Status, record.Items, len(record.Spans))
	}
	for _, sp := range record.Spans {
		if sp.QueryID != qid {
			t.Fatalf("span %s %q carries qid %q, want %q", sp.Kind, sp.Name, sp.QueryID, qid)
		}
	}
	var live struct {
		Queries []obs.LiveQueryInfo `json:"queries"`
	}
	getJSON(t, base+"/debug/queries", &live)
	var cards struct {
		Endpoints []json.RawMessage `json:"endpoints"`
	}
	getJSON(t, base+"/debug/endpoints", &cards)
}

// TestPlanEntriesZeroDisablesThePlanCache: -plan-entries 0 turns the plan
// cache off, as its usage says, and the flag's default (256) keeps it on;
// -answer-entries 0 turns the answer cache off the same way. Where the
// answer cache is off, every repeat of the query executes.
func TestPlanEntriesZeroDisablesThePlanCache(t *testing.T) {
	for _, tc := range []struct {
		name          string
		plan, answers int
		cached        bool
	}{
		{"plan-entries=0", 0, -1, false},
		{"plan-entries=256", 256, -1, true},
		{"answer-entries=0", 256, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, err := start(options{
				addr:        "127.0.0.1:0",
				deploy:      service.DeployConfig{Scenario: "dmv", Seed: 1},
				algo:        "sja+",
				maxInflight: 2, planEntries: tc.plan, answerEntries: tc.answers,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cli, err := service.DialService(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			for i := 0; i < 3; i++ {
				reply, err := cli.Query(ctx, "t", []string{"V = 'dui'", "V = 'sp'"}, false)
				if err != nil {
					t.Fatal(err)
				}
				if reply.AnswerCached || fmt.Sprint(reply.Items) != "[J55 T21]" {
					t.Fatalf("query %d: %v (answer cached %t), want [J55 T21] executed", i, reply.Items, reply.AnswerCached)
				}
				if want := tc.cached && i > 0; reply.PlanCached != want {
					t.Fatalf("query %d: PlanCached = %t, want %t", i, reply.PlanCached, want)
				}
			}
		})
	}
}
