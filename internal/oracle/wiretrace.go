package oracle

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/obs"
	"fusionq/internal/optimizer"
	"fusionq/internal/source"
	"fusionq/internal/wire"
)

// checkWireTrace is the trace-completeness sweep: the instance's sources are
// served over real loopback wire servers (each with its own metrics
// registry) and a plan is executed through wire clients, materialized and
// streaming. Every exchange against a server advertising the fragment
// extension must then leave a grafted server-side fragment in the trace:
//
//   - wire-frag-missing: a wire span has no (or more than one) grafted
//     KindServer child — the server's timing fragment was lost;
//   - wire-frag-nesting: the grafted fragment escapes its wire-span
//     envelope, i.e. clock-skew normalization failed to center the server
//     interval inside the round trip;
//   - wire-bytes-mismatch: the fragments' semantic byte counts disagree
//     with the servers' own fq_wire_bytes_{in,out}_total counters — the two
//     accounts of the same traffic drifted apart.
//
// The Dial-time meta exchange is excluded: it happens before the client has
// seen Meta.Fragments, so it never carries a fragment (and its semantic
// payload is zero bytes on both sides).
func (d *Driver) checkWireTrace(ctx context.Context, ev *env, results map[string]optimizer.Result) []Failure {
	r, ok := results["sja"]
	if !ok {
		if r, ok = results["filter"]; !ok {
			return nil
		}
	}
	infra := func(err error) []Failure {
		return []Failure{{Property: "exec-error", Class: "wire", Mode: "wiretrace", Detail: err.Error()}}
	}
	regs := make([]*obs.Registry, len(ev.sc.Sources))
	clients := make([]source.Source, len(ev.sc.Sources))
	var closers []func()
	defer func() {
		for _, f := range closers {
			f()
		}
	}()
	for j, raw := range ev.sc.Sources {
		regs[j] = obs.NewRegistry()
		// Per-request log lines would swamp a soak; the registry and the
		// fragments carry everything the checks need.
		srv, err := wire.ServeConfig(raw, "127.0.0.1:0", wire.Config{
			Metrics: regs[j],
			Logf:    func(string, ...interface{}) {},
		})
		if err != nil {
			return infra(err)
		}
		closers = append(closers, func() { _ = srv.Close() })
		// The dial's meta exchange runs outside any query Obs: no wire span,
		// no fragment, zero semantic bytes.
		cli, err := wire.DialContext(ctx, srv.Addr())
		if err != nil {
			return infra(err)
		}
		closers = append(closers, func() { _ = cli.Close() })
		clients[j] = cli
	}

	var fs []Failure
	fragIn, fragOut := 0, 0
	run := func(mode string, streaming bool) {
		o := &obs.Obs{QueryID: obs.NewQueryID(), Trace: obs.NewTrace(), Metrics: obs.NewRegistry()}
		ex := &exec.Executor{Sources: clients, Streaming: streaming}
		res, err := ex.Run(obs.With(ctx, o), r.Plan)
		if err != nil {
			fs = append(fs, Failure{Property: "exec-error", Class: "wire", Mode: mode, Detail: err.Error()})
			return
		}
		if !res.Answer.Equal(ev.ref) {
			fs = append(fs, Failure{Property: "answer-mismatch", Class: "wire", Mode: mode, Detail: answerDiff(res.Answer, ev.ref)})
		}
		in, out, sub := checkFragments(o.Trace.Export(), mode)
		fragIn += in
		fragOut += out
		fs = append(fs, sub...)
	}
	run("wiretrace", false)
	run("stream-wiretrace", true)

	// Both runs hit the same servers, so the fragments' byte totals must
	// reconcile with the servers' accumulated counters.
	wantIn := wireByteSum(regs, obs.MWireBytesIn)
	wantOut := wireByteSum(regs, obs.MWireBytesOut)
	if fragIn != wantIn || fragOut != wantOut {
		fs = append(fs, Failure{Property: "wire-bytes-mismatch", Class: "wire", Mode: "wiretrace",
			Detail: fmt.Sprintf("fragments report %d in / %d out, server counters %d in / %d out",
				fragIn, fragOut, wantIn, wantOut)})
	}
	return append(fs, d.checkLiar(ctx, ev, results, clients)...)
}

// checkLiar is the liar class, which draws nothing from the generator: the
// first source becomes a fabric logical over two loopback-served replicas of
// its relation, one honest and one a source.Liar, whose semijoin answers
// carry an item nobody sent. The rest stay the wire clients of the sweep.
// The plan with the most semijoins runs under each scheduler and must end in
// the reference answer or in source.ErrContract: a lie that reaches an
// answer is an answer-mismatch, any other failure an error-class one.
func (d *Driver) checkLiar(ctx context.Context, ev *env, results map[string]optimizer.Result, clients []source.Source) []Failure {
	cls := ""
	for _, c := range []string{"sj", "sja", "filter"} {
		if _, ok := results[c]; ok {
			cls = c
			break
		}
	}
	if cls == "" {
		return nil
	}
	infra := func(err error) []Failure {
		return []Failure{{Property: "exec-error", Class: cls, Mode: "liar", Detail: err.Error()}}
	}
	raw := ev.sc.Sources[0]
	var eps []*fabric.Endpoint
	for _, rep := range []source.Source{
		source.NewWrapper(raw.Name()+"-honest", source.NewRowBackend(ev.sc.Relations[0]), raw.Caps()),
		source.Liar{Source: source.NewWrapper(raw.Name()+"-liar", source.NewRowBackend(ev.sc.Relations[0]), raw.Caps())},
	} {
		srv, err := wire.ServeConfig(rep, "127.0.0.1:0", wire.Config{Logf: func(string, ...interface{}) {}})
		if err != nil {
			return infra(err)
		}
		defer srv.Close()
		cli, err := wire.DialContext(ctx, srv.Addr())
		if err != nil {
			return infra(err)
		}
		defer cli.Close()
		eps = append(eps, fabric.NewEndpoint(cli, 1))
	}
	logical, err := fabric.NewLogical(raw.Name(), eps, fabric.Options{NoSpeculation: true})
	if err != nil {
		return infra(err)
	}
	srcs := append([]source.Source{logical}, clients[1:]...)
	allow := func(err error) bool { return errors.Is(err, source.ErrContract) }
	var fs []Failure
	for _, streaming := range []bool{false, true} {
		mode := map[bool]string{false: "liar", true: "stream-liar"}[streaming]
		fs = append(fs, d.runPlan(ctx, ev, srcs, cls, results[cls].Plan, runOpts{
			mode: mode, streaming: streaming, allowErr: allow,
		})...)
	}
	return fs
}

// checkFragments verifies that every wire span carries exactly one finished
// grafted server fragment, nested inside the wire envelope, and totals the
// fragments' byte attributes.
func checkFragments(spans []obs.SpanData, mode string) (bytesIn, bytesOut int, fs []Failure) {
	children := map[int64][]obs.SpanData{}
	for _, sp := range spans {
		if sp.Kind == obs.KindServer {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, sp := range spans {
		if sp.Kind != obs.KindWire {
			continue
		}
		kids := children[sp.ID]
		if len(kids) != 1 {
			fs = append(fs, Failure{Property: "wire-frag-missing", Class: "wire", Mode: mode,
				Detail: fmt.Sprintf("wire span %q has %d grafted server fragments, want exactly 1", sp.Name, len(kids))})
			continue
		}
		k := kids[0]
		if !k.Finished {
			fs = append(fs, Failure{Property: "wire-frag-missing", Class: "wire", Mode: mode,
				Detail: fmt.Sprintf("grafted fragment %q under %q is not finished", k.Name, sp.Name)})
			continue
		}
		wEnd := sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond)
		kEnd := k.Start.Add(time.Duration(k.DurationUS) * time.Microsecond)
		if k.Start.Before(sp.Start) || kEnd.After(wEnd) {
			fs = append(fs, Failure{Property: "wire-frag-nesting", Class: "wire", Mode: mode,
				Detail: fmt.Sprintf("fragment %q [%v, %v] escapes wire envelope %q [%v, %v]",
					k.Name, k.Start, kEnd, sp.Name, sp.Start, wEnd)})
		}
		bytesIn += atoiAttr(k, "bytesIn")
		bytesOut += atoiAttr(k, "bytesOut")
	}
	return bytesIn, bytesOut, fs
}

func atoiAttr(sp obs.SpanData, key string) int {
	n, err := strconv.Atoi(sp.Attrs[key])
	if err != nil {
		return 0
	}
	return n
}

// wireByteSum totals one wire byte-counter family across the servers'
// registries, excluding the fragment-free meta exchanges.
func wireByteSum(regs []*obs.Registry, name string) int {
	total := 0
	for _, reg := range regs {
		for _, fam := range reg.Snapshot() {
			if fam.Name != name {
				continue
			}
			for _, p := range fam.Points {
				if p.Labels["op"] == wire.OpMeta {
					continue
				}
				total += int(p.Value)
			}
		}
	}
	return total
}
