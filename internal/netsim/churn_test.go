package netsim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestChurnKillDegradeReviveAndRearm(t *testing.T) {
	n := NewNetwork(1)
	fast := Link{Latency: time.Millisecond}
	n.SetLink("A", fast)
	n.SetLink("B", fast)
	slow := Link{Latency: 100 * time.Millisecond}
	n.ScheduleChurn([]ChurnEvent{
		{At: 5 * time.Millisecond, Source: "A", Kind: ChurnKill},
		{At: 5 * time.Millisecond, Source: "B", Kind: ChurnDegrade, Link: slow},
		{At: 300 * time.Millisecond, Source: "A", Kind: ChurnRevive},
	})
	ctx := context.Background()

	// Before the threshold both sources answer over the fast link.
	if d, err := n.Exchange(ctx, "A", "sq", 10, 10); err != nil || d != 2*time.Millisecond {
		t.Fatalf("pre-churn exchange: %v, %v", d, err)
	}
	// Advance simulated time past the threshold.
	for i := 0; i < 3; i++ {
		if _, err := n.Exchange(ctx, "B", "sq", 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Exchange(ctx, "A", "sq", 10, 10); !errors.Is(err, ErrDown) {
		t.Fatalf("killed source exchange err = %v, want ErrDown", err)
	}
	if !n.Down("A") {
		t.Fatal("Down(A) = false after kill")
	}
	if d, err := n.Exchange(ctx, "B", "sq", 10, 10); err != nil || d != 200*time.Millisecond {
		t.Fatalf("degraded exchange: %v, %v (want the slow link's 200ms)", d, err)
	}
	// The slow exchange pushed simulated time past the revive threshold.
	if _, err := n.Exchange(ctx, "A", "sq", 10, 10); err != nil {
		t.Fatalf("revived source exchange: %v", err)
	}

	// ScheduleChurn snapshots the *current* links, so restore them first.
	n.Reset()

	// A killed exchange is free: it records no traffic.
	before := n.Stats()
	n.ScheduleChurn([]ChurnEvent{{At: 0, Source: "A", Kind: ChurnKill}})
	if _, err := n.Exchange(ctx, "A", "sq", 10, 10); !errors.Is(err, ErrDown) {
		t.Fatal("re-scheduled kill did not fire")
	}
	if after := n.Stats(); after != before {
		t.Fatalf("down exchange charged traffic: %+v -> %+v", before, after)
	}

	// Reset re-arms the schedule and restores links and reachability.
	n.Reset()
	if n.Down("A") {
		t.Fatal("Down(A) after Reset")
	}
	if got := n.LinkFor("B"); got != fast {
		t.Fatalf("link B after Reset = %+v, want the snapshot %+v", got, fast)
	}
	// totalTime restarts at zero, so the At=0 kill fires on the first
	// exchange again.
	if _, err := n.Exchange(ctx, "A", "sq", 10, 10); !errors.Is(err, ErrDown) {
		t.Fatal("schedule not re-armed by Reset")
	}
}
