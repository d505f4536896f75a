package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"fusionq/internal/cond"
	"fusionq/internal/fabric"
	"fusionq/internal/plan"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/wire"
	"fusionq/internal/workload"
)

// slowly is a source that takes a few milliseconds over every selection and
// semijoin, so that a replica beside it is the better scored.
type slowly struct{ source.Source }

func (s slowly) Select(ctx context.Context, c cond.Cond) (set.Set, error) {
	time.Sleep(3 * time.Millisecond)
	return s.Source.Select(ctx, c)
}

func (s slowly) Semijoin(ctx context.Context, c cond.Cond, y set.Set) (set.Set, error) {
	time.Sleep(3 * time.Millisecond)
	return s.Source.Semijoin(ctx, c, y)
}

// serveOver serves src from a loopback wire server and returns a client of
// it; both go when the test ends.
func serveOver(t *testing.T, src source.Source) *wire.Client {
	t.Helper()
	srv, err := wire.ServeConfig(src, "127.0.0.1:0", wire.Config{Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := wire.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestPeerAnswersAreHeldToTheirContract: every DMV source is served from
// a loopback wire server whose semijoins add ZZZ99 to the answer. Under
// both schedulers the SJ plan (the paper's, whatever the optimizer would
// pick on data this small) never answers with it: alone, the liars fail
// the query with source.ErrContract; each beside an honest replica, the
// fabric fails the lie over and the answer is the paper's {J55, T21}. The
// honest replicas are the slower, so that the fabric, which tries an
// unobserved replica first and then the better scored, soon asks a liar.
func TestPeerAnswersAreHeldToTheirContract(t *testing.T) {
	sc := workload.DMV()
	p := &plan.Plan{
		Conds:   sc.Conds,
		Sources: sc.SourceNames(),
		Steps: []plan.Step{
			{Kind: plan.KindSelect, Out: "X11", Cond: 0, Source: 0},
			{Kind: plan.KindSelect, Out: "X12", Cond: 0, Source: 1},
			{Kind: plan.KindSelect, Out: "X13", Cond: 0, Source: 2},
			{Kind: plan.KindUnion, Out: "X1", Cond: -1, Source: -1, In: []string{"X11", "X12", "X13"}},
			{Kind: plan.KindSemijoin, Out: "X21", Cond: 1, Source: 0, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X22", Cond: 1, Source: 1, In: []string{"X1"}},
			{Kind: plan.KindSemijoin, Out: "X23", Cond: 1, Source: 2, In: []string{"X1"}},
			{Kind: plan.KindUnion, Out: "X2", Cond: -1, Source: -1, In: []string{"X21", "X22", "X23"}},
		},
		Result: "X2",
	}
	alone := make([]source.Source, len(sc.Sources))
	for j, raw := range sc.Sources {
		alone[j] = serveOver(t, source.Liar{Source: raw})
	}
	replicated := func(t *testing.T) []source.Source {
		srcs := make([]source.Source, len(sc.Sources))
		for j, raw := range sc.Sources {
			rep := func(suffix string) source.Source {
				return source.NewWrapper(raw.Name()+suffix, source.NewRowBackend(sc.Relations[j]), raw.Caps())
			}
			eps := []*fabric.Endpoint{
				fabric.NewEndpoint(serveOver(t, source.Liar{Source: rep("-liar")}), 1),
				fabric.NewEndpoint(serveOver(t, slowly{rep("-honest")}), 1),
			}
			logical, err := fabric.NewLogical(raw.Name(), eps, fabric.Options{NoSpeculation: true})
			if err != nil {
				t.Fatal(err)
			}
			srcs[j] = logical
		}
		return srcs
	}
	for _, streaming := range []bool{false, true} {
		name := map[bool]string{false: "rounds", true: "pipeline"}[streaming]
		t.Run(name+"/alone", func(t *testing.T) {
			got, err := (&Executor{Sources: alone, Streaming: streaming}).Run(context.Background(), p)
			if !errors.Is(err, source.ErrContract) {
				t.Fatalf("run over lying sources: answer %v, error %v; want source.ErrContract", got.Answer, err)
			}
			if !got.Answer.IsEmpty() {
				t.Fatalf("a failed run answered %v", got.Answer)
			}
		})
		t.Run(name+"/replicated", func(t *testing.T) {
			srcs, failovers := replicated(t), 0
			for i := 0; i < 3; i++ {
				got, err := (&Executor{Sources: srcs, Streaming: streaming}).Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Answer.Equal(dmvAnswer) {
					t.Fatalf("answer %v, want %v", got.Answer, dmvAnswer)
				}
				failovers += got.Failovers
			}
			if failovers == 0 {
				t.Fatal("no semijoin was asked of a lying replica")
			}
		})
	}
}
