package netsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestLedgerHoldsOnlyItsOwnExchanges(t *testing.T) {
	n := NewNetwork(1)
	var mine, theirs Ledger
	a, b := WithLedger(bg, &mine, 7), WithLedger(bg, &theirs, 0)
	n.Exchange(bg, "R1", "sq", 1, 0)
	n.Exchange(b, "R1", "sq", 2, 0)
	if got := mine.Entries(); len(got) != 0 {
		t.Fatalf("ledger before its first exchange = %+v", got)
	}
	n.Exchange(a, "R2", "sjq", 3, 0)
	n.Exchange(b, "R2", "sq", 4, 0)
	// A context derived from the carrier carries the ledger; an inner
	// WithLedger changes the tag for what runs under it.
	derived, cancel := context.WithCancel(a)
	defer cancel()
	n.Exchange(derived, "R1", "lq", 5, 0)
	n.Exchange(WithLedger(a, &mine, 8), "R1", "sq", 6, 0)

	got := mine.Entries()
	want := []Entry{
		{Exchange{Source: "R2", Kind: "sjq", ReqBytes: 3}, 7},
		{Exchange{Source: "R1", Kind: "lq", ReqBytes: 5}, 7},
		{Exchange{Source: "R1", Kind: "sq", ReqBytes: 6}, 8},
	}
	for i := range want {
		want[i].Elapsed = n.LinkFor(want[i].Source).TransferTime(want[i].ReqBytes, 0)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %+v, want %+v", got, want)
	}
	if len(theirs.Entries()) != 2 || len(n.Log()) != 6 {
		t.Fatalf("other ledger holds %d, log %d; want 2 and 6", len(theirs.Entries()), len(n.Log()))
	}
	// Entries is a view of a ledger that only grows: a later exchange does not
	// change it, and appending to it does not reach the ledger.
	_ = append(got, Entry{Tag: 99})
	n.Exchange(a, "R1", "sq", 9, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view after a later exchange = %+v", got)
	}
	if now := mine.Entries(); len(now) != 4 || now[3].ReqBytes != 9 || now[3].Tag != 7 {
		t.Fatalf("ledger after a later exchange = %+v", now)
	}
	var none *Ledger
	if none.Entries() != nil {
		t.Fatal("a nil ledger has entries")
	}
}

// TestLedgerMatchesLogWhenInterrupted: an exchange is in the ledger exactly
// when it is in the log. One refused before it started (dead context, killed
// source) is in neither; one interrupted in flight — a deadline, or the
// cancelled leg of a hedged pair — was paid for and is in both.
func TestLedgerMatchesLogWhenInterrupted(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("R1", Link{Latency: 50 * time.Millisecond})
	n.SetLink("R2", Link{Latency: time.Millisecond})
	n.ScheduleChurn([]ChurnEvent{{At: 0, Source: "R2", Kind: ChurnKill}})
	n.SetRealTime(1)
	var l Ledger
	ctx := WithLedger(bg, &l, 0)

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := n.Exchange(dead, "R1", "sq", 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("exchange under a dead context: %v", err)
	}
	if _, err := n.Exchange(ctx, "R2", "sq", 2, 0); !errors.Is(err, ErrDown) {
		t.Fatalf("exchange with a killed source: %v", err)
	}
	if len(l.Entries()) != 0 || len(n.Log()) != 0 {
		t.Fatalf("refused exchanges recorded: ledger %+v, log %+v", l.Entries(), n.Log())
	}

	late, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	d, err := n.Exchange(late, "R1", "sq", 3, 0)
	if !errors.Is(err, context.DeadlineExceeded) || d != 100*time.Millisecond {
		t.Fatalf("exchange past its deadline = %v, %v; want its 100ms charge and DeadlineExceeded", d, err)
	}
	// The loser of a hedged pair: in flight when the winner's return cancels it.
	leg, cancel := context.WithCancel(ctx)
	done := make(chan error)
	go func() {
		_, err := n.Exchange(leg, "R1", "sq", 4, 0)
		done <- err
	}()
	for len(n.Log()) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leg: %v", err)
	}
	log, got := n.Log(), l.Entries()
	if len(log) != 2 || len(got) != 2 || got[0].Exchange != log[0] || got[1].Exchange != log[1] || got[1].ReqBytes != 4 {
		t.Fatalf("ledger %+v, log %+v; want the two interrupted exchanges in both", got, log)
	}
}

// TestLogRetentionIsBounded: a network that is never Reset keeps at most
// logRetention exchanges while its counters stay cumulative, and a ledger
// carried across every trim still holds all of its own.
func TestLogRetentionIsBounded(t *testing.T) {
	n := NewNetwork(1)
	const total = 100_000
	var l Ledger
	ctx := WithLedger(bg, &l, 0)
	// ReqBytes numbers the exchanges; every seventh is the ledger's.
	for i := 0; i < total; i++ {
		c := bg
		if i%7 == 0 {
			c = ctx
		}
		n.Exchange(c, "R1", "sq", i, 0)
		if len(n.log) > logRetention {
			t.Fatalf("after %d exchanges the log holds %d, over the retention of %d", i+1, len(n.log), logRetention)
		}
	}
	log := n.Log()
	if len(log) > logRetention || len(log) < logRetention/2 {
		t.Fatalf("len(Log()) = %d after %d exchanges, want between %d and %d", len(log), total, logRetention/2, logRetention)
	}
	if log[len(log)-1].ReqBytes != total-1 || log[0].ReqBytes != total-len(log) {
		t.Fatalf("log holds exchanges %d..%d, want the last %d", log[0].ReqBytes, log[len(log)-1].ReqBytes, len(log))
	}
	if st := n.Stats(); st.Messages != total {
		t.Fatalf("Messages = %d, want the cumulative %d", st.Messages, total)
	}
	got := l.Entries()
	if len(got) != (total+6)/7 {
		t.Fatalf("ledger holds %d entries, want %d", len(got), (total+6)/7)
	}
	for k, en := range got {
		if en.ReqBytes != 7*k {
			t.Fatalf("ledger entry %d is exchange %d, want %d", k, en.ReqBytes, 7*k)
		}
	}
}

// TestLedgerUnderConcurrentReset has writers account for their own traffic
// the way the executor does — each round under a ledger of its own — while
// another goroutine resets the network as fast as it can. Every ledger must
// hold exactly its round's five exchanges, in order, whatever the shared log
// went through. Run with -race.
func TestLedgerUnderConcurrentReset(t *testing.T) {
	n := NewNetwork(1)
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	resets := 0
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n.Reset()
			resets++
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			me := fmt.Sprintf("R%d", w)
			for round := 1; round <= 2000; round++ {
				n.Exchange(bg, me, "before", round, 0)
				var l Ledger
				ctx := WithLedger(bg, &l, round)
				for k := 0; k < 5; k++ {
					n.Exchange(ctx, me, "after", round, k)
				}
				n.Exchange(bg, me, "later", round, 0)
				got := l.Entries()
				if len(got) != 5 {
					t.Errorf("%s round %d: %d entries in the ledger, want 5", me, round, len(got))
					return
				}
				for k, en := range got {
					if en.Source != me || en.Kind != "after" || en.ReqBytes != round || en.RespBytes != k || en.Tag != round {
						t.Errorf("%s round %d: entry %d is %+v", me, round, k, en)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	resetter.Wait()
	if resets == 0 {
		t.Fatal("no Reset ran beside the writers")
	}
}
