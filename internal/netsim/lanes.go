package netsim

import (
	"context"
	"slices"
)

// Admission. A source sustains its link's MaxConns exchanges at a time, and
// everything that reaches the source shares the network, so the network
// admits: one lane pool per source name, whichever query, catalog fill or
// fetch an exchange serves. A pool is as large as the link is when an
// exchange asks, so a SetLink before or after the first exchange takes effect.

// lanes is one source's pool: the exchanges holding a connection, the waiters
// in arrival order (a grant is one send on a waiter's one-slot channel), and
// spent waiter channels kept for reuse, so admission allocates nothing once
// the pool has seen its deepest queue.
type lanes struct {
	busy           int
	waiting, spare []chan struct{}
}

// Acquire admits one exchange with source: it returns once the source's link
// has a free connection, or with ctx's error (unwrapped) if ctx ends first.
// Each nil return is paired with one Release.
func (n *Network) Acquire(ctx context.Context, source string) error {
	n.mu.Lock()
	p := n.lanes[source]
	if p == nil {
		p = &lanes{}
		n.lanes[source] = p
	}
	if len(p.waiting) == 0 && p.busy < n.linkLocked(source).Conns() {
		p.busy++
		n.mu.Unlock()
		return nil
	}
	var ready chan struct{}
	if k := len(p.spare); k > 0 {
		ready, p.spare = p.spare[k-1], p.spare[:k-1]
	} else {
		ready = make(chan struct{}, 1)
	}
	p.waiting = append(p.waiting, ready)
	n.mu.Unlock()

	var err error
	select {
	case <-ready:
	case <-ctx.Done():
		err = ctx.Err()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		if i := slices.Index(p.waiting, ready); i >= 0 {
			p.waiting = slices.Delete(p.waiting, i, i+1)
		} else {
			// Granted as ctx ended: the connection is this caller's to pass
			// on. The grant was sent under this lock, so this never waits.
			<-ready
			p.busy--
			n.grantLocked(source, p)
		}
	}
	p.spare = append(p.spare, ready)
	return err
}

// Release frees the connection an Acquire of source took.
func (n *Network) Release(source string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.lanes[source]
	p.busy--
	n.grantLocked(source, p)
}

// grantLocked admits waiters, longest first, while the source's link has
// free connections. Callers hold n.mu.
func (n *Network) grantLocked(source string, p *lanes) {
	for k := n.linkLocked(source).Conns(); len(p.waiting) > 0 && p.busy < k; {
		ready := p.waiting[0]
		p.waiting = slices.Delete(p.waiting, 0, 1)
		p.busy++
		// ready has room for the one grant a waiter gets: this never waits.
		select {
		case ready <- struct{}{}:
		default:
		}
	}
}
