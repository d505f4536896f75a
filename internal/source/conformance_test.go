package source_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/exec"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
	"fusionq/internal/wire"
)

var dmvSchema = relation.MustSchema("L",
	relation.Column{Name: "L", Kind: relation.KindString},
	relation.Column{Name: "V", Kind: relation.KindString},
	relation.Column{Name: "D", Kind: relation.KindInt},
)

// dmvBackend holds R1 of the paper's Figure 1 plus R3's S07, an item with
// two tuples.
func dmvBackend() source.Backend {
	r := relation.NewRelation(dmvSchema)
	for _, row := range []struct {
		l, v string
		d    int64
	}{{"J55", "dui", 1993}, {"T21", "sp", 1994}, {"T80", "dui", 1993}, {"S07", "sp", 1996}, {"S07", "sp", 1993}} {
		r.MustInsert(relation.String(row.l), relation.String(row.v), relation.Int(row.d))
	}
	return source.NewRowBackend(r)
}

// layer is one Source implementation that is a source.Layer over a wrapper.
type layer struct {
	name string
	// over builds the layer over a wrapper of the backend; every layer but
	// the fabric's names its wrapper R1, and each calls itself R1.
	over func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source
	// unsupported and cancelled are how the layer's errors begin when the
	// capability tier rules an operation out and when the context is dead
	// (%s is the exchange kind).
	unsupported, cancelled string
}

func layers() []layer {
	wrap := func(b source.Backend, caps source.Capabilities) *source.Wrapper {
		return source.NewWrapper("R1", b, caps)
	}
	return []layer{
		{name: "flaky", unsupported: "source R1: ", cancelled: "source R1: ",
			over: func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source {
				f := source.NewFlaky(wrap(b, caps), 0, 1)
				t.Cleanup(func() {
					if f.Failures() != 0 {
						t.Errorf("rate-0 flaky injected %d failures", f.Failures())
					}
				})
				return f
			}},
		{name: "instrumented", unsupported: "source R1: ", cancelled: "source R1: ",
			over: func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source {
				return source.Instrument(wrap(b, caps), nil)
			}},
		{name: "cached", unsupported: "source R1: ", cancelled: "source R1: ",
			over: func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source {
				return exec.NewCachedSource(wrap(b, caps), exec.NewCache())
			}},
		{name: "logical", unsupported: "source R1-a: ", cancelled: "fabric: R1: %s: ",
			over: func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source {
				ep := fabric.NewEndpoint(source.NewWrapper("R1-a", b, caps), 1)
				l, err := fabric.NewLogical("R1", []*fabric.Endpoint{ep}, fabric.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}},
		{name: "wire", unsupported: "wire: R1: ", cancelled: "wire: 127.0.0.1:",
			over: func(t *testing.T, b source.Backend, caps source.Capabilities) source.Source {
				srv, err := wire.ServeConfig(wrap(b, caps), "127.0.0.1:0", wire.Config{})
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
			}},
	}
}

// render drains and prints a reply, so two replies compare as strings.
func render(t *testing.T, r source.Reply) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "items=%v match=%v tuples=%v", r.Items, r.Match, r.Tuples)
	if r.Rel != nil {
		fmt.Fprintf(&b, " rel=%v", r.Rel.Rows())
	}
	if r.Stats != nil {
		line, err := json.Marshal(r.Stats)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		fmt.Fprintf(&b, " stats=%s", line)
	}
	if r.Stream != nil {
		defer r.Stream.Close()
		b.WriteString(" stream=")
		for {
			batch, err := r.Stream.Next(context.Background())
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if batch == nil {
				break
			}
			fmt.Fprintf(&b, "%v", batch)
		}
	}
	return b.String()
}

// TestLayerConformance is the one table every Source layer answers to: each
// of the eight operations, the streamed selection and stats, through each layer,
// over a wrapper of each capability tier, is what the bare wrapper answers —
// the same reply, ErrUnsupported exactly where the wrapper returns it, and
// errors that begin the way each layer's always have.
func TestLayerConformance(t *testing.T) {
	// The binding rows have a condition of their own: once the cache layer
	// holds sq(dui) it answers any binding on dui without an exchange.
	dui, sp, in93 := cond.MustParse("V = 'dui'"), cond.MustParse("V = 'sp'"), cond.MustParse("D = 1993")
	calls := []struct {
		name string
		call source.Call
		// want is the reply wherever the operation is supported.
		want string
	}{
		{"sq", source.Call{Op: source.OpSelect, Cond: dui},
			"items={J55, T80} match=false tuples=[]"},
		{"sjq", source.Call{Op: source.OpSemi, Cond: sp, Items: set.New("J55", "T21", "T80", "S07")},
			"items={S07, T21} match=false tuples=[]"},
		{"binding hit", source.Call{Op: source.OpBinding, Cond: in93, Item: "J55"},
			"items={} match=true tuples=[]"},
		{"binding miss", source.Call{Op: source.OpBinding, Cond: in93, Item: "T21"},
			"items={} match=false tuples=[]"},
		{"lq", source.Call{Op: source.OpLoad},
			"items={} match=false tuples=[] rel=[['J55' 'dui' 1993] ['T21' 'sp' 1994] ['T80' 'dui' 1993] ['S07' 'sp' 1996] ['S07' 'sp' 1993]]"},
		{"fetch", source.Call{Op: source.OpFetch, Items: set.New("S07", "J55")},
			"items={} match=false tuples=[['J55' 'dui' 1993] ['S07' 'sp' 1996] ['S07' 'sp' 1993]]"},
		{"sqr", source.Call{Op: source.OpSelectRecs, Cond: dui},
			"items={} match=false tuples=[['J55' 'dui' 1993] ['T80' 'dui' 1993]]"},
		{"sjqr", source.Call{Op: source.OpSemiRecs, Cond: dui, Items: set.New("J55", "T21")},
			"items={} match=false tuples=[['J55' 'dui' 1993]]"},
		{"sjqb", source.Call{Op: source.OpSemiBloom, Cond: dui, Filter: bloom.FromItems([]string{"J55", "T21", "T80"}, bloom.DefaultBitsPerItem)},
			"items={J55, T80} match=false tuples=[]"},
		{"streamed sq", source.Call{Op: source.OpSelect, Cond: cond.MustParse("D < 2000"), Batch: 2},
			"items={} match=false tuples=[] stream=[J55 S07][T21 T80]"},
		{"stats", source.Call{Op: source.OpStats},
			`items={} match=false tuples=[] stats={"tuples":5,"items":4,"bytes":67,"numeric":{"D":{"low":[1993,1993,1993,1994],"high":[1993,1993,1994,1996],"values":{"mcv":{"1993":3},"otherCount":2,"otherDistinct":2}}},"strings":{"L":{"otherCount":4,"otherDistinct":4},"V":{"mcv":{"dui":2,"sp":2}}}}`},
	}
	tiers := []source.Capabilities{
		{NativeSemijoin: true, PassedBindings: true, BloomSemijoin: true},
		{PassedBindings: true},
		{},
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ly := range layers() {
		for _, caps := range tiers {
			t.Run(ly.name+"/"+caps.String(), func(t *testing.T) {
				backend := dmvBackend()
				bare := source.NewWrapper("R1", backend, caps)
				src := ly.over(t, backend, caps)

				if src.Name() != "R1" || src.Caps() != caps || !src.Schema().Compatible(dmvSchema) {
					t.Fatalf("describes itself as %s %+v %s", src.Name(), src.Caps(), src.Schema())
				}
				tu, di, by := src.Card()
				if wtu, wdi, wby := bare.Card(); tu != wtu || di != wdi || by != wby || tu != 5 || di != 4 || by <= 0 {
					t.Fatalf("Card = %d,%d,%d, the wrapper's is %d,%d,%d", tu, di, by, wtu, wdi, wby)
				}

				for _, c := range calls {
					ref, refErr := source.Do(context.Background(), bare, c.call)
					if supported := source.Supports(caps, c.call.Op); supported != !errors.Is(refErr, source.ErrUnsupported) {
						t.Fatalf("%s: Supports = %v but the wrapper answers %v", c.name, supported, refErr)
					}
					if refErr != nil {
						_, err := source.Do(context.Background(), src, c.call)
						if !errors.Is(err, source.ErrUnsupported) || !strings.HasPrefix(err.Error(), ly.unsupported) {
							t.Errorf("%s: err = %v, want ErrUnsupported beginning %q", c.name, err, ly.unsupported)
						}
						continue
					}

					// Under a dead context first, while no layer remembers an answer.
					kind := c.call.Op.Kind()
					if c.call.Streamed() && ly.name == "logical" {
						kind = "sq stream"
					}
					prefix := ly.cancelled
					if strings.Contains(prefix, "%s") {
						prefix = fmt.Sprintf(prefix, kind)
					}
					_, err := source.Do(dead, src, c.call)
					if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), prefix) || source.IsTransient(err) {
						t.Errorf("%s under a dead context: err = %v, want context.Canceled beginning %q", c.name, err, prefix)
					}

					// Twice: a layer that remembers (the cache) answers the
					// second time as it did the first.
					for i := 0; i < 2; i++ {
						got, err := source.Do(context.Background(), src, c.call)
						if err != nil {
							t.Errorf("%s: %v", c.name, err)
						} else if g, w := render(t, got), render(t, ref); g != c.want || (i == 0 && w != c.want) {
							t.Errorf("%s:\n layer   %s\n wrapper %s\n want    %s", c.name, g, w, c.want)
						}
					}
				}

				// A condition the source cannot evaluate is the source's error,
				// which the wire reports as the remote's.
				_, err := src.Select(context.Background(), cond.MustParse("Nope = 1"))
				want := strings.Replace(ly.unsupported, "wire: ", "wire: remote ", 1)
				if err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("bad condition: err = %v, want one beginning %q", err, want)
				}
			})
		}
	}
}

// TestStreamedSelectionPassesEveryLayer: a streamed selection through the
// fault and the cache layer reaches the accounting layer as a stream, so a
// three-item result from a first batch of one is two batches (1 and 2 items,
// set.Schedule), one "sq" and one "sqc" exchange — neither layer degrades it
// to one materialized selection.
func TestStreamedSelectionPassesEveryLayer(t *testing.T) {
	for name, over := range map[string]func(source.Source) source.Source{
		"flaky":  func(s source.Source) source.Source { return source.NewFlaky(s, 0, 1) },
		"cached": func(s source.Source) source.Source { return exec.NewCachedSource(s, exec.NewCache()) },
	} {
		t.Run(name, func(t *testing.T) {
			network := netsim.NewNetwork(1)
			network.SetLink("R1", netsim.Link{})
			src := over(source.Instrument(source.NewWrapper("R1", dmvBackend(), source.Capabilities{}), network))
			it, err := source.OpenSelectStream(context.Background(), src, cond.MustParse("D < 1994"), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, source.Reply{Stream: it}); !strings.HasSuffix(got, "stream=[J55][S07 T80]") {
				t.Fatalf("stream = %s", got)
			}
			var kinds []string
			for _, ex := range network.Log() {
				kinds = append(kinds, ex.Kind)
			}
			if fmt.Sprint(kinds) != "[sq sqc]" {
				t.Fatalf("exchanges = %v, want the first batch as sq and each further one as sqc", kinds)
			}
		})
	}
}
