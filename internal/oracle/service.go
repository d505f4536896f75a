package oracle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/obs"
	"fusionq/internal/service"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// serviceGuard bounds the whole fqd phase, as catalogGuard bounds the
// catalog's plan: a server that stops answering is a service-hang failure.
const serviceGuard = 10 * time.Second

// serviceRounds is how many queries a fair tenant sends in the concurrent
// round; the burst leaves t0 two tokens for the sequential queries after it.
const (
	serviceRounds = 3
	serviceBurst  = serviceRounds + 2
)

// checkService is the fqd phase: the instance's sources go behind a mediator
// served by a real fqd over loopback TCP, and four clients send the
// instance's conditions at once, in seed-drawn orders sharing one cache key,
// materialized and streaming, half of them chunked. Quota buckets and the
// answer cache read a frozen clock, so no bucket refills and quota sheds are
// exact. Its properties (class service): every reply is the reference answer
// (answer-mismatch); every error is a *service.ShedError, or on a faulty
// instance an injected fault's execution error (service-error); the hog
// tenant, sending its burst and k more, is quota-shed exactly k times and no
// fair tenant ever (service-quota); a repeat is answer-cached after the round
// and not after Mediator.BumpEpoch (service-cache); after Shutdown the
// admission gauges read 0 (gauge-leak) and admitted plus shed is the queries
// sent (service-accounting); the phase ends within serviceGuard (service-hang).
func (d *Driver) checkService(ctx context.Context, ev *env) []Failure {
	var fs []Failure
	fail := func(prop, mode, format string, args ...any) Failure {
		return Failure{Property: prop, Class: "service", Mode: mode, Detail: fmt.Sprintf(format, args...)}
	}
	gctx, cancel := context.WithTimeout(ctx, serviceGuard)
	defer cancel()
	// The guard counts as hit once the wall clock passes its deadline, even
	// before the runtime delivers ctx's expiry: the kernel enforces the
	// connections' copies of the deadline first, and their timeouts are the
	// guard's, not the server's.
	deadline, _ := gctx.Deadline()
	hung := func() bool { return gctx.Err() != nil || !time.Now().Before(deadline) }
	stop := func(stage string, err error) []Failure {
		if hung() {
			return append(fs, fail("service-hang", stage, "the phase outlived the %v guard: %v", serviceGuard, err))
		}
		return append(fs, fail("exec-error", stage, "%v", err))
	}

	reg := obs.NewRegistry()
	m := core.New(ev.sc.Schema)
	m.SetNetwork(ev.network)
	m.SetMetrics(reg)
	m.SetRecorder(d.Recorder)
	var opts core.Options
	for j, src := range ev.sc.Sources {
		if ev.inst.Faults {
			src = source.NewFlaky(src, ev.inst.FaultRate, ev.inst.Seed+int64(j)*1299709)
			opts.Retries = ev.inst.Retries + 2
		}
		if err := m.AddSource(src, ev.profiles[j]); err != nil {
			return stop("setup", err)
		}
	}
	now := func() time.Time { return time.Unix(0, 0) }
	eng := service.NewEngine(m, service.Config{
		Admission: service.AdmissionConfig{MaxInflight: 2, TenantRate: 1, TenantBurst: serviceBurst, Now: now},
		Answers:   service.AnswerCacheConfig{Now: now},
		Options:   opts,
		Metrics:   reg,
	})
	srv, err := service.Serve(eng, "127.0.0.1:0", service.ServerConfig{Logf: func(string, ...any) {}})
	if err != nil {
		return stop("setup", err)
	}
	defer srv.Close()
	tenants := []string{"t0", "t1", "t2", "hog"}
	clients := make([]*service.Client, len(tenants))
	for c := range clients {
		if clients[c], err = service.DialService(gctx, srv.Addr()); err != nil {
			return stop("dial", err)
		}
		defer clients[c].Close()
		if c%2 == 1 {
			clients[c].Chunk = streamBatch(ev.inst)
		}
	}

	var (
		mu             sync.Mutex
		sent, answered int
		quota          = make([]int, len(tenants))
	)
	query := func(c int, conds []string, stream bool, mode string) *service.QueryReply {
		reply, err := clients[c].Query(gctx, tenants[c], conds, stream)
		mu.Lock()
		defer mu.Unlock()
		sent++
		var shed *service.ShedError
		switch {
		case err == nil:
			answered++
			if got := d.mutated("service", set.Adopt(reply.Items)); len(reply.Items) != ev.ref.Len() || !got.Equal(ev.ref) {
				fs = append(fs, fail("answer-mismatch", mode, "%s", answerDiff(got, ev.ref)))
			}
		case errors.As(err, &shed):
			if shed.Reason == service.ShedQuota {
				quota[c]++
			}
		case hung(), ev.inst.Faults && remoteFault(err):
		default:
			fs = append(fs, fail("service-error", mode, "tenant %s: %v", tenants[c], err))
		}
		return reply
	}

	texts := make([]string, len(ev.sc.Conds))
	for i, c := range ev.sc.Conds {
		texts[i] = c.String()
	}
	k := 1 + rand.New(rand.NewSource(ev.inst.Seed)).Intn(3)
	var wg sync.WaitGroup
	for c, tenant := range tenants {
		n := serviceRounds
		if tenant == "hog" {
			n = serviceBurst + k
		}
		rng := rand.New(rand.NewSource(ev.inst.Seed + int64(c) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				conds := make([]string, len(texts))
				for to, from := range rng.Perm(len(texts)) {
					conds[to] = texts[from]
				}
				stream := (i+c)%2 == 1
				query(c, conds, stream, fmt.Sprintf("%s/stream=%v", tenant, stream))
			}
		}()
	}
	wg.Wait()
	if hung() {
		return stop("concurrent", gctx.Err())
	}
	if quota[0]+quota[1]+quota[2] != 0 || quota[3] != k {
		fs = append(fs, fail("service-quota", "hog", "quota sheds by tenant %v, want [0 0 0 %d]", quota, k))
	}

	warm := answered > 0
	if reply := query(0, texts, false, "cached"); warm && (reply == nil || !reply.AnswerCached) {
		fs = append(fs, fail("service-cache", "cached", "a repeat of an answered query was not served from the answer cache"))
	}
	m.BumpEpoch()
	if reply := query(0, texts, true, "bumped"); reply != nil && reply.AnswerCached {
		fs = append(fs, fail("service-cache", "bumped", "an answer of the previous epoch was served"))
	}
	if err := srv.Shutdown(gctx); err != nil || hung() {
		return stop("shutdown", err)
	}
	snap := reg.Snapshot()
	for _, gauge := range []string{obs.MInflight, obs.MAdmitQueue} {
		if got := metricSum(snap, gauge); got != 0 {
			fs = append(fs, fail("gauge-leak", "shutdown", "%s left at %d after Shutdown", gauge, got))
		}
	}
	if admitted, shed := metricSum(snap, obs.MAdmitted), metricSum(snap, obs.MShed); admitted+shed != int64(sent) {
		fs = append(fs, fail("service-accounting", "shutdown", "%d admitted + %d shed, %d queries sent", admitted, shed, sent))
	}
	return fs
}

// remoteFault reports whether err is the execution error fqd sends back for
// a query whose retries an injected source fault outlasted.
func remoteFault(err error) bool {
	msg := err.Error()
	return strings.HasPrefix(msg, "wire: remote ") && strings.Contains(msg, source.ErrTransient.Error())
}
