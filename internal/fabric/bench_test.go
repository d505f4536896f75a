package fabric

import (
	"context"
	"fmt"
	"testing"

	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

var sinkSet set.Set

// BenchmarkLayeredSelect measures what the fabric adds to one selection: a
// wrapper, then the same wrapper as the only endpoint of a Logical (no hedge
// can arm, so the cost is pick, the leg goroutine, slot and breaker
// accounting).
func BenchmarkLayeredSelect(b *testing.B) {
	rel := relation.NewRelation(testSchema)
	for i := 0; i < 64; i++ {
		rel.MustInsert(relation.String(fmt.Sprintf("ID%06d", i)))
	}
	w := source.NewWrapper("R-a", source.NewRowBackend(rel), source.Capabilities{})
	l, err := NewLogical("R", []*Endpoint{NewEndpoint(w, 1)}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		src  source.Source
	}{{"wrapper", w}, {"logical", l}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bc.src.Select(context.Background(), cond.True{})
				if err != nil {
					b.Fatal(err)
				}
				sinkSet = out
			}
		})
	}
}
