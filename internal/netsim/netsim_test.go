package netsim

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// bg is the context of exchanges nobody accounts.
var bg = context.Background()

func TestTransferTime(t *testing.T) {
	l := Link{Latency: 40 * time.Millisecond, BytesPerSec: 1000, RequestOverhead: 20 * time.Millisecond}
	// 2*40ms + 20ms + 500 bytes / 1000 Bps = 100ms + 500ms
	got := l.TransferTime(200, 300)
	if want := 600 * time.Millisecond; got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestTransferTimeInfiniteBandwidth(t *testing.T) {
	l := Link{Latency: 10 * time.Millisecond}
	if got := l.TransferTime(1<<20, 1<<20); got != 20*time.Millisecond {
		t.Fatalf("TransferTime = %v, want 20ms", got)
	}
}

func TestExchangeAccounting(t *testing.T) {
	n := NewNetwork(42)
	n.SetLink("R1", Link{Latency: time.Millisecond})
	n.Exchange(bg, "R1", "sq", 100, 200)
	n.Exchange(bg, "R1", "sjq", 50, 10)
	s := n.Stats()
	if s.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", s.Messages)
	}
	if s.TotalBytes != 360 {
		t.Fatalf("TotalBytes = %d, want 360", s.TotalBytes)
	}
	if s.TotalTime <= 0 {
		t.Fatal("TotalTime should be positive")
	}
	log := n.Log()
	if len(log) != 2 || log[0].Kind != "sq" || log[1].Kind != "sjq" {
		t.Fatalf("Log = %+v", log)
	}
}

func TestExchangeUsesDefaultLink(t *testing.T) {
	n := NewNetwork(1)
	d, _ := n.Exchange(bg, "unknown", "sq", 0, 0)
	def := DefaultLink()
	if want := def.TransferTime(0, 0); d != want {
		t.Fatalf("default exchange = %v, want %v", d, want)
	}
	if got := n.LinkFor("unknown"); got != def {
		t.Fatalf("LinkFor(unknown) = %+v, want default", got)
	}
}

func TestJitterDeterminism(t *testing.T) {
	run := func() []time.Duration {
		n := NewNetwork(7)
		n.SetLink("R1", Link{Latency: 10 * time.Millisecond, JitterFrac: 0.5})
		var ds []time.Duration
		for i := 0; i < 5; i++ {
			d, _ := n.Exchange(bg, "R1", "sq", 10, 10)
			ds = append(ds, d)
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
	}
	base := Link{Latency: 10 * time.Millisecond}.TransferTime(10, 10)
	for _, d := range a {
		if d < base || d > base+base/2 {
			t.Fatalf("jittered duration %v outside [base, 1.5*base] = [%v, %v]", d, base, base+base/2)
		}
	}
}

func TestReset(t *testing.T) {
	n := NewNetwork(1)
	n.SetLink("R1", Link{Latency: time.Millisecond})
	n.Exchange(bg, "R1", "sq", 1, 1)
	n.Reset()
	if s := n.Stats(); s.Messages != 0 || s.TotalBytes != 0 || s.TotalTime != 0 {
		t.Fatalf("Stats after Reset = %+v", s)
	}
	if len(n.Log()) != 0 {
		t.Fatal("Log should be empty after Reset")
	}
	// Link config survives reset.
	if n.LinkFor("R1").Latency != time.Millisecond {
		t.Fatal("link config should survive Reset")
	}
}

func TestConcurrentExchanges(t *testing.T) {
	n := NewNetwork(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n.Exchange(bg, "R1", "sq", 10, 10)
			}
		}()
	}
	wg.Wait()
	if s := n.Stats(); s.Messages != 800 {
		t.Fatalf("Messages = %d, want 800", s.Messages)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Messages: 3, TotalBytes: 120, TotalTime: time.Second}
	if got := s.String(); got != "3 msgs, 120 bytes, 1s total" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPropTransferTimeMonotoneInBytes(t *testing.T) {
	l := DefaultLink()
	f := func(a, b uint16) bool {
		x, y := int(a), int(a)+int(b)
		return l.TransferTime(x, 0) <= l.TransferTime(y, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The cost model requires subadditivity: sending Y∪Z in one exchange costs
// no more than sending Y and Z separately (Section 2.4). The fixed per-
// exchange overhead makes it strictly cheaper whenever overhead is nonzero.
func TestPropExchangeSubadditive(t *testing.T) {
	l := DefaultLink()
	f := func(y, z uint16) bool {
		whole := l.TransferTime(int(y)+int(z), 0)
		parts := l.TransferTime(int(y), 0) + l.TransferTime(int(z), 0)
		return whole <= parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakespan(t *testing.T) {
	durs := []time.Duration{4 * time.Second, 3 * time.Second, 2 * time.Second, 1 * time.Second}
	cases := []struct {
		k    int
		want time.Duration
	}{
		{0, 10 * time.Second}, // k<1 behaves like a single connection
		{1, 10 * time.Second},
		{2, 5 * time.Second},  // lanes: [4,1] and [3,2]
		{4, 4 * time.Second},  // one lane per exchange: the longest wins
		{99, 4 * time.Second}, // extra lanes beyond the exchanges are idle
	}
	for _, c := range cases {
		if got := Makespan(durs, c.k); got != c.want {
			t.Errorf("Makespan(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if got := Makespan(nil, 3); got != 0 {
		t.Errorf("Makespan(nil) = %v, want 0", got)
	}
}

func TestMakespanNeverBelowParallelBound(t *testing.T) {
	// Property: sum/k <= makespan <= sum, and makespan >= max duration.
	durs := []time.Duration{7, 2, 9, 4, 4, 1, 12, 3}
	var sum, max time.Duration
	for _, d := range durs {
		sum += d
		if d > max {
			max = d
		}
	}
	for k := 1; k <= len(durs)+1; k++ {
		got := Makespan(durs, k)
		if got > sum || got < max || got < sum/time.Duration(k) {
			t.Errorf("Makespan(k=%d) = %v out of bounds [max %v, sum %v]", k, got, max, sum)
		}
	}
}

func TestLinkConnsAndConnsFor(t *testing.T) {
	if (Link{}).Conns() != 1 || (Link{MaxConns: 4}).Conns() != 4 {
		t.Fatal("Link.Conns clamp broken")
	}
	n := NewNetwork(1)
	if got := n.ConnsFor("R1"); got != 1 {
		t.Fatalf("default ConnsFor = %d, want 1", got)
	}
	l := DefaultLink()
	l.MaxConns = 6
	n.SetLink("R1", l)
	if got := n.ConnsFor("R1"); got != 6 {
		t.Fatalf("ConnsFor = %d, want 6", got)
	}
}
