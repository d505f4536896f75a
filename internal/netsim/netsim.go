// Package netsim provides a deterministic simulated wide-area network for
// exercising fusion-query plans against "Internet" sources. The paper's cost
// model (Section 2.4) charges only for sending queries to sources and
// receiving answers; netsim turns those charges into measurable quantities —
// messages, bytes, and simulated elapsed time — without real sockets, so the
// experiments are reproducible.
//
// Each source is reached over a Link with its own latency, bandwidth,
// per-request overhead and connection capacity, mirroring the paper's
// heterogeneous-source setting. The network is shared by everything that runs
// over it: it admits each source's exchanges at that capacity (lanes.go), and
// a caller that accounts for its own exchanges carries a Ledger in its
// context.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ErrDown marks an exchange with a source whose link has been killed by a
// churn event: the endpoint is unreachable until a revive event restores it.
// The failure is transient from the mediator's perspective (source.IsTransient
// matches it), so retry and replica-failover machinery engages.
var ErrDown = errors.New("netsim: source down")

// Link models the path between the mediator and one source.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BytesPerSec is the link throughput. Zero means infinite bandwidth.
	BytesPerSec float64
	// RequestOverhead is fixed per-request processing cost at the source
	// (connection setup, query parsing, optimization at the source).
	RequestOverhead time.Duration
	// JitterFrac adds pseudo-random jitter of up to this fraction of the
	// computed delay (0 disables jitter). The jitter is drawn from the
	// network's one generator in exchange order, so it repeats only when the
	// exchanges do: a round's exchanges overlap, and which of them draws which
	// value, and so a run's TotalWork, follows goroutine order. Nothing in
	// the tree sets it; a catalog's "jitterFrac" is the only way in.
	JitterFrac float64
	// MaxConns is the number of concurrent exchanges the source sustains on
	// this link (its connection pool as seen from the mediator). Zero or one
	// means a single connection: exchanges are serviced one at a time. The
	// network admits at most this many exchanges with the source at once,
	// across every caller (Acquire), and response-time accounting schedules
	// a batch's exchanges over MaxConns lanes (see Makespan).
	MaxConns int
}

// Conns returns the link's effective connection capacity (at least 1).
func (l Link) Conns() int {
	if l.MaxConns < 1 {
		return 1
	}
	return l.MaxConns
}

// DefaultLink returns a link resembling a late-90s Internet path: 80ms RTT,
// ~128KB/s, 20ms per-request overhead.
func DefaultLink() Link {
	return Link{
		Latency:         40 * time.Millisecond,
		BytesPerSec:     128 << 10,
		RequestOverhead: 20 * time.Millisecond,
	}
}

// TransferTime returns the simulated duration of a request/response exchange
// carrying reqBytes up and respBytes down, excluding jitter.
func (l Link) TransferTime(reqBytes, respBytes int) time.Duration {
	d := 2*l.Latency + l.RequestOverhead
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(reqBytes+respBytes) / l.BytesPerSec * float64(time.Second))
	}
	return d
}

// Exchange is one recorded request/response over a link.
type Exchange struct {
	Source    string
	Kind      string // "sq", "sjq", "lq"
	ReqBytes  int
	RespBytes int
	Elapsed   time.Duration
}

// ChurnKind classifies a scripted churn event.
type ChurnKind string

// The churn event kinds: kill makes a source unreachable (exchanges fail
// with ErrDown), degrade replaces its link, revive restores the original
// link and reachability.
const (
	ChurnKill    ChurnKind = "kill"
	ChurnDegrade ChurnKind = "degrade"
	ChurnRevive  ChurnKind = "revive"
)

// ChurnEvent is one scripted change to a source's connectivity, fired when
// the network's accumulated simulated time first reaches At.
type ChurnEvent struct {
	// At is the simulated-time threshold: the event fires at the first
	// exchange attempted once total simulated time has reached At.
	At     time.Duration
	Source string
	Kind   ChurnKind
	// Link is the replacement link for degrade events; ignored otherwise.
	Link Link
}

// Network simulates the mediator's connectivity to all sources, admits
// exchanges to each at its link's capacity, and records every exchange. It is
// safe for concurrent use: everything that reaches a source shares it.
type Network struct {
	mu    sync.Mutex
	links map[string]Link
	// lanes is each source's admission pool (lanes.go).
	lanes map[string]*lanes
	rng   *rand.Rand
	// log holds the most recent exchanges, at most logRetention of them.
	log []Exchange

	// realScale, when positive, makes every exchange take realScale × its
	// simulated duration of wall-clock time, so context deadlines bite.
	realScale float64

	// Scripted churn: events fire in At order as simulated time advances.
	// baseLinks snapshots the configuration at ScheduleChurn time so Reset
	// and revive events can restore it; down marks killed sources.
	churn      []ChurnEvent
	churnFired int
	baseLinks  map[string]Link
	down       map[string]bool

	totalBytes int
	totalTime  time.Duration
	messages   int
}

// NewNetwork creates an empty network; seed seeds its jitter generator.
func NewNetwork(seed int64) *Network {
	return &Network{
		links: make(map[string]Link),
		lanes: make(map[string]*lanes),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetLink installs or replaces the link to the named source. A larger
// MaxConns admits waiting exchanges at once.
func (n *Network) SetLink(source string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[source] = l
	if p := n.lanes[source]; p != nil {
		n.grantLocked(source, p)
	}
}

// LinkFor returns the link to the named source, or DefaultLink if none was
// configured.
func (n *Network) LinkFor(source string) Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(source)
}

// linkLocked is LinkFor for callers holding n.mu.
func (n *Network) linkLocked(source string) Link {
	if l, ok := n.links[source]; ok {
		return l
	}
	return DefaultLink()
}

// ConnsFor returns the connection capacity of the link to the named source
// (1 when no link is configured, since DefaultLink has no pool).
func (n *Network) ConnsFor(source string) int {
	return n.LinkFor(source).Conns()
}

// Makespan returns the completion time of running the given exchange
// durations over k connections: each exchange is assigned, in order, to the
// connection that frees up earliest (greedy list scheduling). With k=1 this
// is the plain sum; with k lanes it is the critical path a source with a
// k-connection pool imposes on a batch of concurrently issued queries. It is
// the accounting counterpart of the network's per-source admission (Acquire).
// It allocates nothing for up to makespanLanes connections.
func Makespan(durations []time.Duration, k int) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k == 1 {
		var sum time.Duration
		for _, d := range durations {
			sum += d
		}
		return sum
	}
	if k > len(durations) {
		k = len(durations)
	}
	// free[i] is when connection i next becomes idle; assign each exchange
	// to the earliest-free connection.
	var lanes [makespanLanes]time.Duration
	free := lanes[:]
	if k > len(lanes) {
		free = make([]time.Duration, k)
	}
	free = free[:k]
	for _, d := range durations {
		min := 0
		for i := 1; i < k; i++ {
			if free[i] < free[min] {
				min = i
			}
		}
		free[min] += d
	}
	var max time.Duration
	for _, f := range free {
		if f > max {
			max = f
		}
	}
	return max
}

// makespanLanes is how many connections Makespan schedules on the stack.
const makespanLanes = 64

// ScheduleChurn installs a scripted churn sequence. Events fire in At order
// as the network's simulated time advances past each threshold; the current
// link configuration is snapshotted so revive events and Reset restore it.
// Reset re-arms the whole schedule: whoever times a script against one
// execution calls Reset before it, so that traffic which advanced simulated
// time earlier (a statistics exchange, another query) does not consume it.
func (n *Network) ScheduleChurn(events []ChurnEvent) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.churn = make([]ChurnEvent, len(events))
	copy(n.churn, events)
	sort.SliceStable(n.churn, func(i, j int) bool { return n.churn[i].At < n.churn[j].At })
	n.churnFired = 0
	n.baseLinks = make(map[string]Link, len(n.links))
	for name, l := range n.links {
		n.baseLinks[name] = l
	}
	n.down = make(map[string]bool)
}

// Down reports whether a kill event has made the named source unreachable.
func (n *Network) Down(source string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[source]
}

// applyChurnLocked fires every scheduled event whose threshold the simulated
// clock has reached. Callers hold n.mu.
func (n *Network) applyChurnLocked() {
	for n.churnFired < len(n.churn) && n.churn[n.churnFired].At <= n.totalTime {
		ev := n.churn[n.churnFired]
		n.churnFired++
		switch ev.Kind {
		case ChurnKill:
			n.down[ev.Source] = true
		case ChurnDegrade:
			n.links[ev.Source] = ev.Link
		case ChurnRevive:
			delete(n.down, ev.Source)
			if base, ok := n.baseLinks[ev.Source]; ok {
				n.links[ev.Source] = base
			}
		}
	}
}

// SetRealTime makes exchanges take wall-clock time: each exchange sleeps
// scale × its simulated duration before returning, so context deadlines and
// cancellation actually interrupt in-flight traffic. Zero (the default)
// keeps exchanges instantaneous — purely simulated time.
func (n *Network) SetRealTime(scale float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if scale < 0 {
		scale = 0
	}
	n.realScale = scale
}

// Exchange records a round trip to source carrying the given payload sizes
// and returns its simulated elapsed time. It honors ctx: a cancelled or
// expired context aborts the exchange with ctx's error (wrapped so errors.Is
// sees context.Canceled / context.DeadlineExceeded). An exchange that was
// already in flight when the deadline hit stays recorded — the traffic was
// paid for — but its caller gets the error. In real-time mode (SetRealTime)
// the exchange sleeps its scaled duration and the deadline interrupts the
// sleep. Whenever the exchange is recorded in the log it is also entered in
// the ledger ctx carries (WithLedger), in the same order.
func (n *Network) Exchange(ctx context.Context, source, kind string, reqBytes, respBytes int) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("netsim: exchange with %s: %w", source, err)
	}
	acct := ledgerOf(ctx)
	n.mu.Lock()
	n.applyChurnLocked()
	if n.down[source] {
		n.mu.Unlock()
		// Connection refused: instantaneous, no traffic is paid for.
		return 0, fmt.Errorf("netsim: exchange with %s: %w", source, ErrDown)
	}
	l := n.linkLocked(source)
	d := l.TransferTime(reqBytes, respBytes)
	if l.JitterFrac > 0 {
		d += time.Duration(n.rng.Float64() * l.JitterFrac * float64(d))
	}
	if len(n.log) == logRetention {
		// Drop the older half, so trimming costs a copy per logRetention/2
		// exchanges and not one per exchange.
		half := logRetention / 2
		n.log = n.log[:copy(n.log, n.log[half:])]
	}
	ex := Exchange{Source: source, Kind: kind, ReqBytes: reqBytes, RespBytes: respBytes, Elapsed: d}
	n.log = append(n.log, ex)
	acct.enter(ex)
	n.totalBytes += reqBytes + respBytes
	n.totalTime += d
	n.messages++
	scale := n.realScale
	n.mu.Unlock()

	if scale > 0 {
		timer := time.NewTimer(time.Duration(scale * float64(d)))
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return d, fmt.Errorf("netsim: exchange with %s: %w", source, ctx.Err())
		}
	}
	return d, nil
}

// Stats summarizes all traffic recorded so far.
type Stats struct {
	Messages   int
	TotalBytes int
	// TotalTime is the sum of exchange durations: the sequential-execution
	// "total work" the paper's cost model minimizes.
	TotalTime time.Duration
}

// Stats returns a snapshot of the accumulated traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{Messages: n.messages, TotalBytes: n.totalBytes, TotalTime: n.totalTime}
}

// logRetention bounds the exchange log: a network that is never Reset (one
// under a long-running service) keeps its most recent exchanges, between
// half of this many and all of it, and its counters stay cumulative.
const logRetention = 1 << 15

// Log returns a copy of the retained exchanges in order. The log is for
// inspection; whoever accounts for its own traffic carries a Ledger.
func (n *Network) Log() []Exchange {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Exchange, len(n.log))
	copy(out, n.log)
	return out
}

// Reset clears counters and the exchange log but keeps link configuration.
// Any scheduled churn is re-armed: links revert to their ScheduleChurn-time
// snapshot, killed sources come back, and the event script fires again as
// simulated time re-accumulates.
func (n *Network) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = nil
	n.totalBytes = 0
	n.totalTime = 0
	n.messages = 0
	if n.churn != nil {
		n.churnFired = 0
		for name, l := range n.baseLinks {
			n.links[name] = l
		}
		n.down = make(map[string]bool)
	}
}

// String renders the aggregate counters.
func (s Stats) String() string {
	return fmt.Sprintf("%d msgs, %d bytes, %v total", s.Messages, s.TotalBytes, s.TotalTime)
}
