package source

import (
	"context"
	"errors"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/set"
)

func TestFlakyAlwaysFailsAtRateOne(t *testing.T) {
	f := NewFlaky(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true, PassedBindings: true}), 1, 1)
	ops := []func() error{
		func() error { _, err := f.Select(context.Background(), cond.MustParse("V = 'dui'")); return err },
		func() error {
			_, err := f.Semijoin(context.Background(), cond.MustParse("V = 'dui'"), set.New("J55"))
			return err
		},
		func() error {
			_, err := f.SelectBinding(context.Background(), cond.MustParse("V = 'dui'"), "J55")
			return err
		},
		func() error { _, err := f.Load(context.Background()); return err },
		func() error { _, err := f.Fetch(context.Background(), set.New("J55")); return err },
		func() error { _, err := f.SelectRecords(context.Background(), cond.MustParse("V = 'dui'")); return err },
		func() error {
			_, err := f.SemijoinRecords(context.Background(), cond.MustParse("V = 'dui'"), set.New("J55"))
			return err
		},
	}
	for i, op := range ops {
		if err := op(); !IsTransient(err) {
			t.Fatalf("op %d: err = %v, want transient", i, err)
		}
	}
	if f.Failures() != len(ops) {
		t.Fatalf("Failures = %d, want %d", f.Failures(), len(ops))
	}
}

// TestFlakyCancelledContextNotTransient pins the retry-safety contract: once
// the context is dead, trip must report the cancellation — never inject a
// transient failure — even at rate 1, and even when a stall timer was already
// ready when the select ran (the select picks arbitrarily among ready cases,
// so only the post-stall re-check makes this deterministic). A retrying
// caller would otherwise spin through its whole budget after it should have
// stopped.
func TestFlakyCancelledContextNotTransient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, stall := range []time.Duration{0, time.Nanosecond} {
		f := NewFlaky(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{}), 1, 1).SetStall(stall)
		for i := 0; i < 100; i++ {
			_, err := f.Select(ctx, cond.MustParse("V = 'dui'"))
			if err == nil {
				t.Fatalf("stall %v: select with dead context succeeded", stall)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stall %v: err = %v, want wrapped context.Canceled", stall, err)
			}
			if IsTransient(err) {
				t.Fatalf("stall %v: dead-context error classified transient: %v", stall, err)
			}
		}
		if f.Failures() != 0 {
			t.Fatalf("stall %v: injected %d failures under a dead context", stall, f.Failures())
		}
	}
}

func TestFlakyDeterministic(t *testing.T) {
	run := func() []bool {
		f := NewFlaky(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{}), 0.5, 42)
		out := make([]bool, 20)
		for i := range out {
			_, err := f.Select(context.Background(), cond.MustParse("V = 'dui'"))
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("failure sequence not deterministic")
		}
	}
}

func TestFlakyRateClamped(t *testing.T) {
	f := NewFlaky(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{}), -3, 1)
	if _, err := f.Select(context.Background(), cond.MustParse("V = 'dui'")); err != nil {
		t.Fatalf("negative rate should clamp to 0: %v", err)
	}
	f = NewFlaky(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{}), 7, 1)
	if _, err := f.Select(context.Background(), cond.MustParse("V = 'dui'")); !IsTransient(err) {
		t.Fatal("rate above 1 should clamp to always-fail")
	}
}
