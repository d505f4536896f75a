package main

import (
	"context"
	"testing"
	"time"
)

// TestSelfTime: children that overlap are counted once, and a child that
// outlives its parent is clipped to it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "exec.run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "source.select", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "source.select", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Name: "source.select", StartNS: 90, EndNS: 120},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 40*time.Nanosecond {
		t.Errorf("self time %v, want 40ns (100 minus 10..60 and 90..100)", got)
	}
	if got := self[2]; got != 30*time.Nanosecond {
		t.Errorf("leaf self time %v, want its duration 30ns", got)
	}
}

// TestRecorderParents: a span opened under another's context is its child
// and shares its query; an untraced context records nothing through the
// decorator's gate.
func TestRecorderParents(t *testing.T) {
	rec := newRecorder()
	ctx := withQuery(context.Background(), 7)
	pctx, parent := rec.start(ctx, "exec.run")
	_, child := rec.start(pctx, "source.select")
	child.end(5)
	parent.end(0)
	spans := rec.export()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].QID != 7 || spans[0].QID != 7 || spans[1].Items != 5 {
		t.Errorf("wrong parentage: %+v", spans)
	}
	ts := &timedSource{rec: rec}
	if _, sp := ts.span(untraced(pctx), "source.select"); sp != nil {
		t.Errorf("decorator recorded under an untraced context")
	}
	var none *recorder
	if _, sp := none.start(ctx, "x"); sp != nil {
		t.Errorf("nil recorder recorded")
	} else {
		sp.end(0) // a nil span ends without effect
	}
}
