// Fixture for the chandiscipline analyzer: inside a goroutine — a function
// literal launched with go, or a named function some go statement launches
// — every channel operation must be a non-blocking kick (select with
// default) or cancellable (select with a ctx.Done()/done case). Unguarded
// sends, receives, channel ranges, and deaf selects are flagged;
// synchronous code is the caller's problem and stays clean.
package fixture

import (
	"context"
	"sync"
)

// Flagged: a naked send in a goroutine strands it if the peer stops
// consuming.
func nakedSend(ch chan int) {
	go func() {
		ch <- 1 // want `unguarded channel send in goroutine`
	}()
}

// Flagged: drain is launched by a go statement, so its body is goroutine
// code even though the receive is lexically outside the go.
func nakedRecvLauncher(ch chan int) {
	go drain(ch)
}

func drain(ch chan int) {
	<-ch // want `unguarded channel receive in goroutine`
}

// Flagged: a channel range cannot be cancelled; only closing the channel
// ends it.
func rangeLoop(ch chan int) {
	go func() {
		for v := range ch { // want `range over channel in goroutine cannot be cancelled`
			_ = v
		}
	}()
}

// Flagged: a select with neither a default nor a done case waits forever
// when both peers stall.
func deafSelect(a, b chan int) {
	go func() {
		select { // want `select in goroutine has neither a default nor a ctx\.Done\(\)/done case`
		case <-a:
		case <-b:
		}
	}()
}

// Clean: the kick pattern — a select with a default over a capacity-1
// channel never blocks.
func kick(ch chan struct{}) {
	go func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}()
}

// Clean: the receive is cancellable through ctx.Done().
func cancellable(ctx context.Context, ch chan int) {
	go func() {
		select {
		case v := <-ch:
			_ = v
		case <-ctx.Done():
		}
	}()
}

// Clean: a done-channel case is an explicit stop signal.
func withDone(ch chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case v := <-ch:
				_ = v
			case <-done:
				return
			}
		}
	}()
}

// Clean: synchronous channel code may block; the caller owns the wait.
func synchronous(ch chan int) int {
	ch <- 0
	return <-ch
}

// outcome is what one leg of a hedged exchange reports, as in the fabric's
// attempt.
type outcome struct {
	n   int
	err error
}

// Flagged: a hedge leg that sends its outcome bare. The buffer has room for
// every leg, but once the attempt returns nobody reads, and a leg whose send
// cannot complete is stranded.
func hedgeLegBare(ctx context.Context, legs int, run func(context.Context) outcome) outcome {
	results := make(chan outcome, legs)
	var wg sync.WaitGroup
	for i := 0; i < legs; i++ {
		lctx, cancel := context.WithCancel(ctx)
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- run(lctx) // want `unguarded channel send in goroutine`
		}()
	}
	defer wg.Wait()
	return <-results
}

// Clean: the same leg sends in a select that also watches its leg context,
// so cancelling the losers releases them whoever is still reading.
func hedgeLeg(ctx context.Context, legs int, run func(context.Context) outcome) outcome {
	results := make(chan outcome, legs)
	var wg sync.WaitGroup
	for i := 0; i < legs; i++ {
		lctx, cancel := context.WithCancel(ctx)
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case results <- run(lctx):
			case <-lctx.Done():
			}
		}()
	}
	defer wg.Wait()
	return <-results
}

// stream is a chunked transfer in the shape of the wire client's: a pump
// goroutine buffers chunks under mu and wakes the consumer through a
// capacity-1 notify channel.
type stream struct {
	mu     sync.Mutex
	chunks [][]string
	notify chan struct{}
	wg     sync.WaitGroup
}

func startStream(read func() []string) *stream {
	st := &stream{notify: make(chan struct{}, 1)}
	st.wg.Add(1)
	go st.pump(read)
	return st
}

// Clean: the pump is launched by a go statement, so its body is goroutine
// code, and its wake-up is a kick: a select with a default never blocks, and
// the latched signal makes the consumer re-check the buffer.
func (st *stream) pump(read func() []string) {
	defer st.wg.Done()
	for chunk := read(); chunk != nil; chunk = read() {
		st.mu.Lock()
		st.chunks = append(st.chunks, chunk)
		st.mu.Unlock()
		select {
		case st.notify <- struct{}{}:
		default:
		}
	}
}
