package main

import (
	"context"
	"testing"
)

// TestCorruptedReplyIsCaught feeds the correctness gate one reply that
// lost an item, one that gained one and one whose item was altered, among
// honest replies: exactly those three count as failed.
func TestCorruptedReplyIsCaught(t *testing.T) {
	w, _ := findWorkload("cold-distinct")
	w = w.shortened()
	tr := w.generate(1)
	d, err := buildDeployment(context.Background(), w.deploy, w.engine, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	refs, err := references(context.Background(), instance{tr, d.dataset})
	if err != nil {
		t.Fatal(err)
	}
	honest := func() ([]outcome, [][]string) {
		outs := make([]outcome, len(tr.measured))
		replies := make([][]string, len(tr.measured))
		for i, q := range tr.measured {
			items, err := d.reference(q)
			if err != nil {
				t.Fatal(err)
			}
			replies[i] = append([]string(nil), items...)
			outs[i] = outcome{got: digestOf(replies[i])}
		}
		return outs, replies
	}
	outs, replies := honest()
	if n := countFailed(tr, outs, refs); n != 0 {
		t.Fatalf("honest replies: %d failed", n)
	}
	if len(replies) < 3 || len(replies[0]) < 2 {
		t.Fatalf("need three replies with items, have %d (first has %d items)", len(replies), len(replies[0]))
	}
	outs[0].got = digestOf(replies[0][1:])
	outs[1].got = digestOf(append(replies[1], "ID999999"))
	altered := append([]string(nil), replies[2]...)
	if len(altered) == 0 {
		t.Fatal("third reply is empty")
	}
	altered[0] = "ID999998"
	outs[2].got = digestOf(altered)
	if n := countFailed(tr, outs, refs); n != 3 {
		t.Errorf("three corrupted replies: %d counted as failed", n)
	}
	outs, _ = honest()
	outs[len(outs)-1].failed = true
	if n := countFailed(tr, outs, refs); n != 1 {
		t.Errorf("one errored query: %d counted as failed", n)
	}
}

// TestDigestIgnoresOrder: a reply is an item set.
func TestDigestIgnoresOrder(t *testing.T) {
	a := digestOf([]string{"ID000001", "ID000002", "ID000003"})
	b := digestOf([]string{"ID000003", "ID000001", "ID000002"})
	if a != b {
		t.Errorf("digest depends on order: %v vs %v", a, b)
	}
	if c := digestOf([]string{"ID000001", "ID000002", "ID000002"}); c == a {
		t.Errorf("digest misses a duplicate replacing an item")
	}
}
