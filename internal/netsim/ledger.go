package netsim

import (
	"context"
	"sync"
)

// Ledger is one caller's own account of its exchanges: every exchange made
// under a context that carries the ledger (WithLedger) is entered in it, in
// the order the network recorded them. What else used the network meanwhile,
// and what Reset or retention did to the shared log, does not show in it. The
// zero Ledger is empty and ready; it is safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	entries []Entry
}

// Entry is one exchange in a ledger, under the tag of the context that made
// it.
type Entry struct {
	Exchange
	Tag int
}

type ledgerKey struct{}

// account is what a context carries: the ledger and the tag its exchanges
// are entered under.
type account struct {
	ledger *Ledger
	tag    int
}

// WithLedger returns a context whose exchanges are entered in l under tag —
// whatever the caller wants told apart within one ledger (the executor tags a
// plan step's exchanges with the step's index). A context carries one ledger:
// an inner WithLedger replaces the outer for the exchanges below it.
func WithLedger(ctx context.Context, l *Ledger, tag int) context.Context {
	return context.WithValue(ctx, ledgerKey{}, &account{ledger: l, tag: tag})
}

func ledgerOf(ctx context.Context) *account {
	a, _ := ctx.Value(ledgerKey{}).(*account)
	return a
}

// enter records ex; a nil account (a context without a ledger) records
// nothing.
func (a *account) enter(ex Exchange) {
	if a == nil {
		return
	}
	a.ledger.mu.Lock()
	a.ledger.entries = append(a.ledger.entries, Entry{Exchange: ex, Tag: a.tag})
	a.ledger.mu.Unlock()
}

// Entries returns the entries made so far, in order. A ledger only grows, so
// the slice is a stable view and no copy: later exchanges never change what
// it holds. A nil ledger has none.
func (l *Ledger) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries[:len(l.entries):len(l.entries)]
}
