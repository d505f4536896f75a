package source

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/netsim"
	"fusionq/internal/obs"
	"fusionq/internal/oem"
	"fusionq/internal/relation"
	"fusionq/internal/set"
)

var dmvSchema = relation.MustSchema("L",
	relation.Column{Name: "L", Kind: relation.KindString},
	relation.Column{Name: "V", Kind: relation.KindString},
	relation.Column{Name: "D", Kind: relation.KindInt},
)

// figure1Rows are the contents of R1 from the paper's Figure 1.
var figure1Rows = [][3]interface{}{
	{"J55", "dui", int64(1993)},
	{"T21", "sp", int64(1994)},
	{"T80", "dui", int64(1993)},
}

func rowRel(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.NewRelation(dmvSchema)
	for _, row := range figure1Rows {
		r.MustInsert(relation.String(row[0].(string)), relation.String(row[1].(string)), relation.Int(row[2].(int64)))
	}
	return r
}

// backends builds one of each backend type holding R1's data.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	kv := NewKVBackend(dmvSchema)
	st := oem.NewStore()
	for _, row := range figure1Rows {
		tup := relation.Tuple{relation.String(row[0].(string)), relation.String(row[1].(string)), relation.Int(row[2].(int64))}
		if err := kv.Put(tup); err != nil {
			t.Fatalf("kv.Put: %v", err)
		}
		st.Add(oem.Complex("violation",
			oem.Atomic("license", tup[0]),
			oem.Atomic("vtype", tup[1]),
			oem.Atomic("year", tup[2]),
		))
	}
	mapping := oem.Mapping{Schema: dmvSchema, Labels: []string{"license", "vtype", "year"}}
	return map[string]Backend{
		"row": NewRowBackend(rowRel(t)),
		"kv":  kv,
		"oem": NewOEMBackend(st, mapping),
	}
}

func TestWrapperSelectAcrossBackends(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			w := NewWrapper("R1", b, Capabilities{NativeSemijoin: true, PassedBindings: true})
			got, err := w.Select(context.Background(), cond.MustParse("V = 'dui'"))
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			if want := set.New("J55", "T80"); !got.Equal(want) {
				t.Fatalf("sq(V='dui') = %v, want %v", got, want)
			}
			// Empty result.
			got, err = w.Select(context.Background(), cond.MustParse("V = 'nothing'"))
			if err != nil || !got.IsEmpty() {
				t.Fatalf("sq(V='nothing') = %v, %v", got, err)
			}
		})
	}
}

func TestWrapperSemijoinAcrossBackends(t *testing.T) {
	y := set.New("J55", "T21", "T80", "Z99")
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			w := NewWrapper("R1", b, Capabilities{NativeSemijoin: true})
			got, err := w.Semijoin(context.Background(), cond.MustParse("V = 'sp'"), y)
			if err != nil {
				t.Fatalf("Semijoin: %v", err)
			}
			if want := set.New("T21"); !got.Equal(want) {
				t.Fatalf("sjq(V='sp', y) = %v, want %v", got, want)
			}
		})
	}
}

func TestWrapperSizeAcrossBackends(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tuples, distinct, bytes := b.Size()
			if tuples != 3 || distinct != 3 {
				t.Fatalf("Size = %d,%d, want 3,3", tuples, distinct)
			}
			if bytes <= 0 {
				t.Fatal("Size bytes should be positive")
			}
		})
	}
}

func TestWrapperCapabilityEnforcement(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{})
	if _, err := w.Semijoin(context.Background(), cond.MustParse("V = 'sp'"), set.New("T21")); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Semijoin on selection-only source: err = %v, want ErrUnsupported", err)
	}
	if _, err := w.SelectBinding(context.Background(), cond.MustParse("V = 'sp'"), "T21"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("SelectBinding on selection-only source: err = %v, want ErrUnsupported", err)
	}
	// Selections always work.
	if _, err := w.Select(context.Background(), cond.MustParse("V = 'sp'")); err != nil {
		t.Fatalf("Select should work on selection-only source: %v", err)
	}
}

func TestWrapperSelectBinding(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{PassedBindings: true})
	ok, err := w.SelectBinding(context.Background(), cond.MustParse("V = 'dui'"), "J55")
	if err != nil || !ok {
		t.Fatalf("SelectBinding(J55) = %v,%v, want true", ok, err)
	}
	ok, err = w.SelectBinding(context.Background(), cond.MustParse("V = 'dui'"), "T21")
	if err != nil || ok {
		t.Fatalf("SelectBinding(T21) = %v,%v, want false", ok, err)
	}
	ok, err = w.SelectBinding(context.Background(), cond.MustParse("V = 'dui'"), "Z99")
	if err != nil || ok {
		t.Fatalf("SelectBinding(absent) = %v,%v, want false", ok, err)
	}
}

func TestWrapperCheckErrors(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true, PassedBindings: true})
	bad := cond.MustParse("Nope = 1")
	if _, err := w.Select(context.Background(), bad); err == nil {
		t.Error("Select with unknown attribute should fail")
	}
	if _, err := w.Semijoin(context.Background(), bad, set.New("J55")); err == nil {
		t.Error("Semijoin with unknown attribute should fail")
	}
	if _, err := w.SelectBinding(context.Background(), bad, "J55"); err == nil {
		t.Error("SelectBinding with unknown attribute should fail")
	}
}

func TestWrapperLoadAndFetch(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{})
	rel, err := w.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if rel.Len() != 3 {
		t.Fatalf("Load returned %d tuples, want 3", rel.Len())
	}
	tuples, err := w.Fetch(context.Background(), set.New("J55", "T80"))
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(tuples) != 2 {
		t.Fatalf("Fetch returned %d tuples, want 2", len(tuples))
	}
	tuples, err = w.Fetch(context.Background(), set.New("absent"))
	if err != nil || len(tuples) != 0 {
		t.Fatalf("Fetch(absent) = %v,%v", tuples, err)
	}
}

func TestInstrumentedCountersAndNetwork(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1", netsim.Link{})
	src := Instrument(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true, PassedBindings: true}), network)

	if _, err := src.Select(context.Background(), cond.MustParse("V = 'dui'")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Semijoin(context.Background(), cond.MustParse("V = 'sp'"), set.New("J55", "T21")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Fetch(context.Background(), set.New("J55")); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, ex := range network.Log() {
		kinds = append(kinds, ex.Kind)
	}
	if want := []string{"sq", "sjq", "lq", "fetch"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("exchange kinds = %v, want %v", kinds, want)
	}
	ns := network.Stats()
	if ns.Messages != 4 {
		t.Fatalf("network messages = %d, want 4", ns.Messages)
	}
	if ns.TotalBytes <= 0 {
		t.Fatal("network bytes should be positive")
	}
}

// TestInstrumentedAccounting pins what the accounting layer charges for each
// operation on R1: the exchange's kind, request and response bytes, read from
// the test's own ledger.
func TestInstrumentedAccounting(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1", netsim.Link{})
	caps := Capabilities{NativeSemijoin: true, PassedBindings: true, BloomSemijoin: true}
	src := Instrument(NewWrapper("R1", NewRowBackend(rowRel(t)), caps), network)
	var ledger netsim.Ledger
	ctx := netsim.WithLedger(context.Background(), &ledger, 0)
	c := cond.MustParse("V = 'dui'")
	y := set.New("J55", "T21")
	f := bloom.FromItems([]string{"J55", "T80"}, 10)
	drain := func(it set.Iter, err error) error {
		for err == nil {
			var batch []string
			if batch, err = it.Next(ctx); batch == nil {
				break
			}
		}
		return err
	}
	for _, op := range []struct {
		name string
		run  func() error
		log  []netsim.Exchange
	}{
		{"sq", func() error { _, err := src.Select(ctx, c); return err },
			[]netsim.Exchange{{Kind: "sq", ReqBytes: 41, RespBytes: 6}}},
		{"sjq", func() error { _, err := src.Semijoin(ctx, c, y); return err },
			[]netsim.Exchange{{Kind: "sjq", ReqBytes: 47, RespBytes: 3}}},
		{"binding hit", func() error { _, err := src.SelectBinding(ctx, c, "J55"); return err },
			[]netsim.Exchange{{Kind: "sq", ReqBytes: 44, RespBytes: 3}}},
		{"binding miss", func() error { _, err := src.SelectBinding(ctx, c, "T21"); return err },
			[]netsim.Exchange{{Kind: "sq", ReqBytes: 44, RespBytes: 0}}},
		{"lq", func() error { _, err := src.Load(ctx); return err },
			[]netsim.Exchange{{Kind: "lq", ReqBytes: 32, RespBytes: 41}}},
		{"fetch", func() error { _, err := src.Fetch(ctx, y); return err },
			[]netsim.Exchange{{Kind: "fetch", ReqBytes: 38, RespBytes: 27}}},
		{"sqr", func() error { _, err := src.SelectRecords(ctx, c); return err },
			[]netsim.Exchange{{Kind: "sqr", ReqBytes: 41, RespBytes: 28}}},
		{"sjqr", func() error { _, err := src.SemijoinRecords(ctx, c, y); return err },
			[]netsim.Exchange{{Kind: "sjqr", ReqBytes: 47, RespBytes: 14}}},
		{"sjqb", func() error { _, err := src.SemijoinBloom(ctx, c, f); return err },
			[]netsim.Exchange{{Kind: "sjqb", ReqBytes: 49, RespBytes: 6}}},
		{"streamed sq", func() error { return drain(src.SelectStream(ctx, cond.MustParse("D < 2000"), 1)) },
			// Three items from a first batch of one: batches of 1 and 2 items
			// (set.Schedule), each charged as one exchange.
			[]netsim.Exchange{{Kind: "sq", ReqBytes: 40, RespBytes: 3}, {Kind: "sqc", RespBytes: 6}}},
		// A summary is charged at its Size and is no query of the cost model's.
		{"stats", func() error { _, err := src.Summarize(ctx); return err },
			[]netsim.Exchange{{Kind: "stats", ReqBytes: 32, RespBytes: rowRel(t).Summarize().Size()}}},
	} {
		before := len(ledger.Entries())
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		var got []netsim.Exchange
		for _, en := range ledger.Entries()[before:] {
			got = append(got, en.Exchange)
		}
		for i := range op.log {
			op.log[i].Source = "R1"
		}
		if !reflect.DeepEqual(got, op.log) {
			t.Errorf("%s: exchanges %+v, want %+v", op.name, got, op.log)
		}
	}
}

func TestInstrumentedErrorsDoNotRecord(t *testing.T) {
	network := netsim.NewNetwork(1)
	src := Instrument(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{}), network)
	if _, err := src.Semijoin(context.Background(), cond.MustParse("V = 'sp'"), set.New("a")); err == nil {
		t.Fatal("expected error")
	}
	if log := network.Log(); len(log) != 0 {
		t.Fatalf("failed operation was charged: %+v", log)
	}
}

func TestSemijoinBloom(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true, BloomSemijoin: true})
	y := set.New("J55", "T21", "T80")
	f := bloom.FromItems(y.Items(), bloom.DefaultBitsPerItem)
	got, err := w.SemijoinBloom(context.Background(), cond.MustParse("V = 'dui'"), f)
	if err != nil {
		t.Fatalf("SemijoinBloom: %v", err)
	}
	// All true matches must be present (no false negatives); the mediator
	// removes any false positives by intersecting with y.
	exact := set.New("J55", "T80")
	if !exact.SubsetOf(got) {
		t.Fatalf("bloom result %v misses true matches %v", got, exact)
	}
	if !got.Intersect(y).Equal(exact) {
		t.Fatalf("filtered result %v != exact %v", got.Intersect(y), exact)
	}
}

func TestSemijoinBloomUnsupported(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true})
	f := bloom.FromItems([]string{"J55"}, 10)
	if _, err := w.SemijoinBloom(context.Background(), cond.MustParse("V = 'dui'"), f); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestInstrumentedBloomCharges(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1", netsim.Link{})
	src := Instrument(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{BloomSemijoin: true}), network)
	f := bloom.FromItems([]string{"J55", "T80"}, 10)
	if _, err := src.SemijoinBloom(context.Background(), cond.MustParse("V = 'dui'"), f); err != nil {
		t.Fatal(err)
	}
	log := network.Log()
	if len(log) != 1 || log[0].Kind != "sjqb" {
		t.Fatalf("log = %+v", log)
	}
	if log[0].ReqBytes < f.Bytes() {
		t.Fatalf("request bytes %d should include the %d-byte filter", log[0].ReqBytes, f.Bytes())
	}
}

func TestSelectAndSemijoinRecords(t *testing.T) {
	w := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true})
	tuples, err := w.SelectRecords(context.Background(), cond.MustParse("V = 'dui'"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("SelectRecords = %d tuples, want 2", len(tuples))
	}
	tuples, err = w.SemijoinRecords(context.Background(), cond.MustParse("V = 'dui'"), set.New("J55", "T21"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0][0].Raw() != "J55" {
		t.Fatalf("SemijoinRecords = %v", tuples)
	}
	weak := NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{})
	if _, err := weak.SemijoinRecords(context.Background(), cond.MustParse("V = 'dui'"), set.New("J55")); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestCapabilitiesString(t *testing.T) {
	cases := []struct {
		caps Capabilities
		want string
	}{
		{Capabilities{NativeSemijoin: true, PassedBindings: true}, "native-semijoin"},
		{Capabilities{PassedBindings: true}, "passed-bindings"},
		{Capabilities{}, "selection-only"},
	}
	for _, c := range cases {
		if got := c.caps.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.caps, got, c.want)
		}
	}
}

func TestKVBackendErrors(t *testing.T) {
	kv := NewKVBackend(dmvSchema)
	if err := kv.Put(relation.Tuple{relation.String("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := kv.Put(relation.Tuple{relation.Int(1), relation.String("v"), relation.Int(2)}); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestOEMBackendSkipsIrregularObjects(t *testing.T) {
	st := oem.NewStore()
	st.Add(oem.Complex("violation",
		oem.Atomic("license", relation.String("J55")),
		oem.Atomic("vtype", relation.String("dui")),
		oem.Atomic("year", relation.Int(1993)),
	))
	// Missing the year attribute: the wrapper cannot map it.
	st.Add(oem.Complex("violation",
		oem.Atomic("license", relation.String("T21")),
		oem.Atomic("vtype", relation.String("sp")),
	))
	b := NewOEMBackend(st, oem.Mapping{Schema: dmvSchema, Labels: []string{"license", "vtype", "year"}})
	n := 0
	if err := b.Scan(func(relation.Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("exported %d tuples, want 1 (irregular object skipped)", n)
	}
}

// TestInstrumentedConcurrentBatches hammers one Instrumented source from
// many goroutines (run under -race in CI) and checks the counters, the
// shared metrics registry, and the network all account every operation
// exactly once — no lost updates under contention.
func TestInstrumentedConcurrentBatches(t *testing.T) {
	network := netsim.NewNetwork(1)
	network.SetLink("R1", netsim.Link{})
	src := Instrument(NewWrapper("R1", NewRowBackend(rowRel(t)), Capabilities{NativeSemijoin: true, PassedBindings: true}), network)

	reg := obs.NewRegistry()
	var ledger netsim.Ledger
	ctx := netsim.WithLedger(obs.With(context.Background(), &obs.Obs{Metrics: reg}), &ledger, 0)

	const goroutines, batches = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if _, err := src.Select(ctx, cond.MustParse("V = 'dui'")); err != nil {
					errs <- err
					return
				}
				if _, err := src.Semijoin(ctx, cond.MustParse("V = 'sp'"), set.New("J55", "T21")); err != nil {
					errs <- err
					return
				}
				if _, err := src.SelectBinding(ctx, cond.MustParse("V = 'dui'"), "J55"); err != nil {
					errs <- err
					return
				}
				if _, err := src.Load(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const n = goroutines * batches
	// Per batch: the selection and the binding probe are "sq" exchanges, the
	// semijoin ships 2 items and the probe 1; sq returns 2 items (J55, T80),
	// sjq 1 (T21), the probe its binding, lq the relation. All goroutines share
	// one ledger, so this is also its concurrent-writer test.
	kinds, req, resp := map[string]int{}, 0, 0
	for _, en := range ledger.Entries() {
		kinds[en.Kind]++
		req += en.ReqBytes
		resp += en.RespBytes
	}
	if want := map[string]int{"sq": 2 * n, "sjq": n, "lq": n}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("ledger lost updates: kinds %v, want %v", kinds, want)
	}
	if wantReq, wantResp := (41+46+44+32)*n, (6+3+3+41)*n; req != wantReq || resp != wantResp {
		t.Fatalf("request/response bytes = %d/%d, want %d/%d", req, resp, wantReq, wantResp)
	}
	if got := network.Stats(); got.Messages != 4*n || got.TotalBytes != req+resp {
		t.Fatalf("network stats = %+v, want %d messages and %d bytes", got, 4*n, req+resp)
	}
	if got := reg.Histogram(obs.MExchangeSeconds, "source", "R1").Count(); got != 4*n {
		t.Fatalf("exchange histogram count = %d, want %d", got, 4*n)
	}
	if got := reg.Counter(obs.MBytesSent, "source", "R1").Value(); got <= 0 {
		t.Fatalf("bytes-sent counter = %d, want > 0", got)
	}
}
