package proxy

import (
	"context"
	"errors"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"elinda/internal/endpoint"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func fixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New(64)
	_, err := st.Load([]rdf.Triple{
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("work1"), P: ex("author"), O: ex("plato")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const expansionQuery = `SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/Philosopher>. ?s ?p ?o.}
GROUP BY ?s ?p} GROUP BY ?p`

const plainQuery = `SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . }`

func TestRoutingDecomposerFirst(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Hour})
	_, tr, err := p.QueryTraced(context.Background(), expansionQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != RouteDecomposer {
		t.Errorf("route = %v, want decomposer", tr.Route)
	}
	_, tr, err = p.QueryTraced(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != RouteBackend {
		t.Errorf("plain query route = %v, want backend", tr.Route)
	}
}

func TestHVSServesRepeats(t *testing.T) {
	// Tiny threshold so everything is heavy.
	p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond})
	_, tr1, err := p.QueryTraced(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Route != RouteBackend || !tr1.Heavy {
		t.Fatalf("first: %+v", tr1)
	}
	res, tr2, err := p.QueryTraced(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Route != RouteHVS {
		t.Errorf("repeat route = %v, want hvs", tr2.Route)
	}
	if len(res.Rows) != 2 {
		t.Errorf("cached rows = %d", len(res.Rows))
	}
}

// TestHVSDisabled: a threshold no answer reaches turns the HVS off, so
// repeats run on the backend again.
func TestHVSDisabled(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Hour})
	p.Query(context.Background(), plainQuery)
	_, tr, _ := p.QueryTraced(context.Background(), plainQuery)
	if tr.Route != RouteBackend || tr.Heavy {
		t.Errorf("repeat with the HVS off = %+v", tr)
	}
	if p.HVS().Len() != 0 {
		t.Error("HVS stored entries while off")
	}
}

func TestDecomposerDisabled(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Hour, DisableDecomposer: true})
	_, tr, err := p.QueryTraced(context.Background(), expansionQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != RouteBackend {
		t.Errorf("route with decomposer off = %v", tr.Route)
	}
}

func TestKBUpdateInvalidatesCache(t *testing.T) {
	st := fixture(t)
	p := New(st, Options{HeavyThreshold: time.Nanosecond})
	p.Query(context.Background(), plainQuery)
	// KB update.
	st.Add(rdf.Triple{S: ex("kant"), P: rdf.TypeIRI, O: ex("Philosopher")})
	res, tr, err := p.QueryTraced(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Route != RouteBackend {
		t.Errorf("route after update = %v, want backend (cache cleared)", tr.Route)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows after update = %d, want 3", len(res.Rows))
	}
}

// TestDecomposedAnswersStayOutOfHVS: the decomposer memo is the one home
// of a property-expansion answer. With every answer heavy enough for the
// HVS, each repeat is still the decomposer's, never heavy, and the HVS
// stays empty.
func TestDecomposedAnswersStayOutOfHVS(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond})
	for i := 0; i < 3; i++ {
		_, tr, err := p.QueryTraced(context.Background(), expansionQuery)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Route != RouteDecomposer || tr.Heavy {
			t.Errorf("read %d: %+v, want a decomposer answer that is not heavy", i, tr)
		}
	}
	if n := p.HVS().Len(); n != 0 {
		t.Errorf("HVS holds %d entries, want 0", n)
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	boom := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		return nil, errors.New("backend down")
	})
	p := NewWithBackend(fixture(t), boom, Options{DisableDecomposer: true})
	if _, err := p.Query(context.Background(), plainQuery); err == nil {
		t.Error("backend error swallowed")
	}
	// Errors must not populate the cache.
	if p.HVS().Len() != 0 {
		t.Error("error result cached")
	}
}

func TestParseErrorFallsThroughToBackend(t *testing.T) {
	// A dialect query our parser rejects must still reach the backend.
	called := false
	backend := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		called = true
		return &sparql.Result{}, nil
	})
	p := NewWithBackend(fixture(t), backend, Options{})
	if _, err := p.Query(context.Background(), "DESCRIBE <http://x>"); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("backend not consulted for unparseable query")
	}
}

func TestRouteCounts(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond})
	p.Query(context.Background(), plainQuery)     // backend
	p.Query(context.Background(), plainQuery)     // hvs
	p.Query(context.Background(), expansionQuery) // decomposer
	counts := p.MetricsSnapshot().Counts
	if counts["backend"] != 1 || counts["hvs"] != 1 || counts["decomposer"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestProxyOverHTTP(t *testing.T) {
	// Full Figure-3 stack: HTTP client -> endpoint.Server -> proxy ->
	// engine, exercising both cache tiers through real HTTP: a backend
	// answer and its HVS repeat, a decomposer answer and its memo repeat.
	p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond})
	srv := httptest.NewServer(endpoint.NewServer(p))
	defer srv.Close()
	c := endpoint.NewClient(srv.URL)
	for _, q := range []string{plainQuery, expansionQuery} {
		res1, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res1.Rows) != len(res2.Rows) {
			t.Errorf("cold/warm row mismatch: %d vs %d", len(res1.Rows), len(res2.Rows))
		}
	}
	counts := p.MetricsSnapshot().Counts
	if counts["backend"] != 1 || counts["hvs"] != 1 || counts["decomposer"] != 2 {
		t.Errorf("counts over HTTP = %v", counts)
	}
}

func TestConcurrentProxyQueries(t *testing.T) {
	p := New(fixture(t), Options{HeavyThreshold: time.Nanosecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.Query(context.Background(), plainQuery); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Query(context.Background(), expansionQuery); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	counts := p.MetricsSnapshot().Counts
	total := counts["backend"] + counts["hvs"] + counts["decomposer"]
	if total != 800 {
		t.Errorf("total routed = %d, want 800", total)
	}
}

// canon renders a result as its sorted rows, so answers from different
// tiers compare regardless of row order.
func canon(res *sparql.Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(res.Vars))
		for j, v := range res.Vars {
			cells[j] = row[v].String()
		}
		rows[i] = strings.Join(cells, "\t")
	}
	sort.Strings(rows)
	return strings.Join(res.Vars, "\t") + "\n" + strings.Join(rows, "\n")
}

// TestConfigurationsShareStore: options are fixed at construction, so
// comparing configurations means one proxy per configuration over one
// store. Hammered concurrently (run under -race), the three proxies must
// give identical rows per query, and with no proxy-level lock left each
// proxy's route counts must still equal its per-route histogram counts and
// add up to the requests issued, coalesced followers included.
func TestConfigurationsShareStore(t *testing.T) {
	st := fixture(t)
	proxies := map[string]*Proxy{
		"all tiers":     New(st, Options{HeavyThreshold: time.Nanosecond}),
		"no hvs":        New(st, Options{HeavyThreshold: time.Hour}),
		"no decomposer": New(st, Options{HeavyThreshold: time.Nanosecond, DisableDecomposer: true}),
	}
	queries := []string{plainQuery, expansionQuery}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := sparql.NewEngine(st).Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canon(res)
	}

	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for name, p := range proxies {
					for qi, q := range queries {
						res, err := p.Query(context.Background(), q)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
						if got := canon(res); got != want[qi] {
							t.Errorf("%s, query %d:\n%s\nwant:\n%s", name, qi, got, want[qi])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	const issued = goroutines * rounds * 2
	for name, p := range proxies {
		m := p.MetricsSnapshot()
		total := 0
		for r := Route(0); r < numRoutes; r++ {
			total += m.Counts[r.String()]
			if hist := int(m.Routes[r.String()].Count); m.Counts[r.String()] != hist {
				t.Errorf("%s, route %v: metrics count %d, histogram %d", name, r, m.Counts[r.String()], hist)
			}
		}
		if total != issued {
			t.Errorf("%s: routed %d requests, issued %d (%v)", name, total, issued, m.Counts)
		}
	}
	if n := proxies["no hvs"].MetricsSnapshot().Counts["hvs"]; n != 0 {
		t.Errorf("HVS answered %d requests while disabled", n)
	}
	if n := proxies["no decomposer"].MetricsSnapshot().Counts["decomposer"]; n != 0 {
		t.Errorf("decomposer answered %d requests while disabled", n)
	}
}

func TestExplainLocalAndRemote(t *testing.T) {
	st := fixture(t)
	p := New(st, Options{})
	rep, err := p.Explain(context.Background(), plainQuery)
	if err != nil {
		t.Fatal(err)
	}
	// plainQuery has one pattern: the report comes from the local
	// engine, and no orderer had anything to do.
	if rep.Mode != "none" || len(rep.Steps) != 1 {
		t.Errorf("report = %+v, want mode none with one step", rep)
	}

	// A remote-backed proxy has no local engine to describe: 501-class.
	backend := httptest.NewServer(endpoint.NewServer(endpoint.ExecutorFunc(
		func(ctx context.Context, src string) (*sparql.Result, error) {
			return &sparql.Result{}, nil
		})))
	defer backend.Close()
	remote := NewWithBackend(st, endpoint.NewClient(backend.URL), Options{DisableDecomposer: true})
	if _, err := remote.Explain(context.Background(), plainQuery); !errors.Is(err, endpoint.ErrReadOnly) {
		t.Errorf("remote explain error = %v, want ErrReadOnly", err)
	}
}
