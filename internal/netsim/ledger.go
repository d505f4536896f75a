package netsim

import (
	"context"
	"sync"
	"time"
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

// NewLedger returns an empty ledger with room for n entries: a caller that
// knows about how many exchanges it will make enters them without growing
// the ledger as it goes.
func NewLedger(n int) *Ledger {
	return &Ledger{entries: make([]Entry, 0, n)}
}

type ledgerKey struct{}

// Account is a context whose exchanges are entered in a ledger under a tag:
// what WithLedger returns. A caller that opens many, such as the executor
// with one a plan step, can keep them in an array of its own and Open each
// in place, so carrying a ledger costs no allocation.
type Account struct {
	ctx    context.Context
	ledger *Ledger
	tag    int
}

// WithLedger returns a context whose exchanges are entered in l under tag —
// whatever the caller wants told apart within one ledger (the executor tags a
// plan step's exchanges with the step's index). A context carries one ledger:
// an inner WithLedger replaces the outer for the exchanges below it.
func WithLedger(ctx context.Context, l *Ledger, tag int) context.Context {
	return new(Account).Open(ctx, l, tag)
}

// Open makes a the context WithLedger(ctx, l, tag) returns, and returns it.
// a must not be opened again while a context it returned is in use.
func (a *Account) Open(ctx context.Context, l *Ledger, tag int) context.Context {
	*a = Account{ctx: ctx, ledger: l, tag: tag}
	return a
}

// Deadline is the deadline of the context a was opened over.
func (a *Account) Deadline() (time.Time, bool) { return a.ctx.Deadline() }

// Done is the done channel of the context a was opened over.
func (a *Account) Done() <-chan struct{} { return a.ctx.Done() }

// Err is the error of the context a was opened over.
func (a *Account) Err() error { return a.ctx.Err() }

// Value answers the ledger's key with a and every other key as the context
// a was opened over does.
func (a *Account) Value(key any) any {
	if key == (ledgerKey{}) {
		return a
	}
	return a.ctx.Value(key)
}

func ledgerOf(ctx context.Context) *Account {
	a, _ := ctx.Value(ledgerKey{}).(*Account)
	return a
}

// enter records ex; a nil account (a context without a ledger) records
// nothing.
func (a *Account) enter(ex Exchange) {
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
