package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWindowHoldsOnlyExchangesAfterTheMark(t *testing.T) {
	n := NewNetwork(1)
	n.Exchange("R1", "sq", 1, 0)
	n.Exchange("R1", "sq", 2, 0)
	m := n.Mark()
	if got := n.Since(m); len(got) != 0 {
		t.Fatalf("empty window = %+v", got)
	}
	n.Exchange("R2", "sjq", 3, 0)
	n.Exchange("R1", "lq", 4, 0)
	got := n.Since(m)
	if len(got) != 2 || got[0].ReqBytes != 3 || got[1].ReqBytes != 4 {
		t.Fatalf("window = %+v, want the exchanges carrying 3 and 4", got)
	}
	// The window is the caller's copy, and reading it leaves the log whole.
	got[0].ReqBytes = 99
	if log := n.Log(); len(log) != 4 || log[2].ReqBytes != 3 {
		t.Fatalf("log after Since = %+v", log)
	}
}

func TestWindowAcrossReset(t *testing.T) {
	n := NewNetwork(1)
	for i := 0; i < 5; i++ {
		n.Exchange("R1", "sq", i, 0)
	}
	m := n.Mark()
	n.Exchange("R1", "sq", 5, 0)
	n.Reset()
	if got := n.Since(m); len(got) != 0 {
		t.Fatalf("window right after Reset = %+v, want empty", got)
	}
	// The new log grows past the old mark's position: all of it was recorded
	// after the mark, so all of it is in the window.
	for i := 10; i < 18; i++ {
		n.Exchange("R1", "sq", i, 0)
	}
	got := n.Since(m)
	if len(got) != 8 || got[0].ReqBytes != 10 || got[7].ReqBytes != 17 {
		t.Fatalf("window after Reset = %+v, want the 8 exchanges recorded since", got)
	}
	if got := n.Since(n.Mark()); len(got) != 0 {
		t.Fatalf("fresh mark's window = %+v", got)
	}
}

// TestLogRetentionIsBounded: a network that is never Reset keeps at most
// logRetention exchanges while its counters stay cumulative, and a window
// taken across a trim still holds exactly the exchanges after its mark.
func TestLogRetentionIsBounded(t *testing.T) {
	n := NewNetwork(1)
	const total = 100_000
	// One window is opened a few exchanges before every trim and read a few
	// after it; ReqBytes numbers the exchanges.
	var m Mark
	opened, windows := -1, 0
	for i := 0; i < total; i++ {
		if (i+3)%(logRetention/2) == 0 {
			m, opened = n.Mark(), i
		}
		n.Exchange("R1", "sq", i, 0)
		if len(n.log) > logRetention {
			t.Fatalf("after %d exchanges the log holds %d, over the retention of %d", i+1, len(n.log), logRetention)
		}
		if opened >= 0 && i == opened+5 {
			got := n.Since(m)
			if len(got) != 6 || got[0].ReqBytes != opened || got[5].ReqBytes != i {
				t.Fatalf("window opened at %d and read at %d = %+v", opened, i, got)
			}
			opened = -1
			windows++
		}
	}
	if windows < 3 {
		t.Fatalf("%d windows crossed a trim; the test needs several", windows)
	}
	if got := len(n.Log()); got > logRetention || got < logRetention/2 {
		t.Fatalf("len(Log()) = %d after %d exchanges, want between %d and %d", got, total, logRetention/2, logRetention)
	}
	if st := n.Stats(); st.Messages != total {
		t.Fatalf("Messages = %d, want the cumulative %d", st.Messages, total)
	}
	// A mark older than the retained head gets what is retained, in order and
	// up to the newest exchange.
	old := n.Since(Mark{})
	if len(old) != len(n.Log()) || old[len(old)-1].ReqBytes != total-1 || old[0].ReqBytes != total-len(old) {
		t.Fatalf("window of the zero mark holds %d exchanges, %d..%d", len(old), old[0].ReqBytes, old[len(old)-1].ReqBytes)
	}
}

// TestWindowUnderConcurrentReset has writers account for their own traffic
// the way the executor does while another goroutine resets the network
// whenever a writer kicks it. No window may hold one of the writer's
// exchanges from before its mark, a window no Reset overlapped must hold all
// five of its own in order, and nothing may panic. Run with -race.
func TestWindowUnderConcurrentReset(t *testing.T) {
	n := NewNetwork(1)
	var started, finished, disturbed, whole atomic.Int64
	stop := make(chan struct{})
	kick := make(chan struct{}, 1)
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			started.Add(1)
			n.Reset()
			finished.Add(1)
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			me := fmt.Sprintf("R%d", w)
			for round := 1; round <= 2000; round++ {
				n.Exchange(me, "before", round, 0)
				n.Exchange(me, "before", round, 0)
				quiet := finished.Load()
				m := n.Mark()
				for k := 0; k < 5; k++ {
					if k == 2 && round%3 == w%3 {
						select {
						case kick <- struct{}{}:
						default:
						}
					}
					n.Exchange(me, "after", round, k)
				}
				window := n.Since(m)
				undisturbed := started.Load() == quiet
				mine := 0
				for _, ex := range window {
					if ex.Source != me {
						continue
					}
					if ex.Kind != "after" || ex.ReqBytes != round || ex.RespBytes != mine && undisturbed {
						t.Errorf("%s round %d: window holds %+v", me, round, ex)
						return
					}
					mine++
				}
				if mine > 5 || undisturbed && mine != 5 {
					t.Errorf("%s round %d: %d own exchanges in the window (undisturbed=%v)", me, round, mine, undisturbed)
					return
				}
				if undisturbed {
					whole.Add(1)
				} else {
					disturbed.Add(1)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	resetter.Wait()
	if whole.Load() == 0 || disturbed.Load() == 0 {
		t.Fatalf("%d windows ran undisturbed and %d across a Reset: the test needs both", whole.Load(), disturbed.Load())
	}
}
