package wire

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/workload"
)

// recordLiar answers a record semijoin and a fetch with the records of T80
// as well, an item it was not asked about.
type recordLiar struct{ source.Source }

func (l recordLiar) SemijoinRecords(ctx context.Context, c cond.Cond, y set.Set) ([]relation.Tuple, error) {
	out, err := l.Source.SemijoinRecords(ctx, c, y)
	return l.lie(ctx, out, err)
}

func (l recordLiar) Fetch(ctx context.Context, items set.Set) ([]relation.Tuple, error) {
	out, err := l.Source.Fetch(ctx, items)
	return l.lie(ctx, out, err)
}

func (l recordLiar) lie(ctx context.Context, out []relation.Tuple, err error) ([]relation.Tuple, error) {
	if err != nil {
		return out, err
	}
	extra, err := l.Source.Fetch(ctx, set.New("T80"))
	return append(out, extra...), err
}

// TestRecordAnswersAreHeldToTheirContract: a record semijoin's and a
// fetch's records must be of the items sent. The client passes an honest
// peer's and refuses a peer's that adds T80's with source.ErrContract,
// naming the peer and the op.
func TestRecordAnswersAreHeldToTheirContract(t *testing.T) {
	sc := workload.DMV()
	ctx := context.Background()
	y := set.New("J55", "T21")
	for _, tc := range []struct {
		name string
		src  source.Source
		lies bool
	}{
		{"honest", sc.Sources[0], false},
		{"liar", recordLiar{sc.Sources[0]}, true},
	} {
		srv, err := ServeConfig(tc.src, "127.0.0.1:0", Config{Logf: func(string, ...interface{}) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := DialContext(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for op, call := range map[string]func() ([]relation.Tuple, error){
			OpSemiRecs: func() ([]relation.Tuple, error) { return cli.SemijoinRecords(ctx, sc.Conds[1], y) },
			OpFetch:    func() ([]relation.Tuple, error) { return cli.Fetch(ctx, y) },
		} {
			tuples, err := call()
			switch {
			case !tc.lies && (err != nil || len(tuples) == 0):
				t.Errorf("%s %s: %d records, error %v; want the records and no error", tc.name, op, len(tuples), err)
			case tc.lies && !errors.Is(err, source.ErrContract):
				t.Errorf("%s %s: %d records, error %v; want source.ErrContract", tc.name, op, len(tuples), err)
			case tc.lies && !strings.Contains(err.Error(), "R1: "+op):
				t.Errorf("%s %s: the error %q does not name the peer and the op", tc.name, op, err)
			}
		}
	}
}
