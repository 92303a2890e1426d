package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// get serves src over srv with the given Accept header and returns the
// body.
func get(t testing.TB, c *http.Client, srv *httptest.Server, src, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"?query="+url.QueryEscape(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestCachedBodiesServed: an HVS hit (a backend answer) and a decomposer
// memo hit are served from the body kept beside the answer on its first
// serve, per content type: the same bytes every time, the encoding of the
// answer the tier holds, and for the HVS counted in its Bytes.
func TestCachedBodiesServed(t *testing.T) {
	st := fixture(t)
	for _, tc := range []struct {
		name  string
		src   string
		opts  Options
		route Route
	}{
		{"hvs", plainQuery, Options{HeavyThreshold: time.Nanosecond}, RouteHVS},
		{"memo", expansionQuery, Options{HeavyThreshold: time.Hour}, RouteDecomposer},
	} {
		p := New(st, tc.opts)
		srv := httptest.NewServer(endpoint.NewServer(p))
		res, err := p.Query(context.Background(), tc.src) // records the HVS entry or the memo's rendering
		if err != nil {
			t.Fatal(err)
		}
		before := p.HVS().Stats().Bytes
		var kept int64
		for _, ct := range []string{endpoint.ContentType, endpoint.ContentTypeTSV} {
			want, ok := endpoint.EncodeBody(sparql.TableOf(res), ct)
			if !ok {
				t.Fatalf("%s: EncodeBody refused a small answer", ct)
			}
			for i := 0; i < 3; i++ {
				if got := get(t, srv.Client(), srv, tc.src, ct); !bytes.Equal(got, want) {
					t.Fatalf("%s %s serve %d:\n got  %s\n want %s", tc.name, ct, i, got, want)
				}
			}
			_, body, err := p.QueryBody(context.Background(), tc.src, ct)
			if err != nil || !bytes.Equal(body, want) {
				t.Fatalf("%s %s: QueryBody kept %q (%v), want %q", tc.name, ct, body, err, want)
			}
			kept += int64(len(want))
		}
		srv.Close()
		if counts := p.MetricsSnapshot().Counts; counts[tc.route.String()] < 8 {
			t.Errorf("%s: routes %v, want every read after the first from %s", tc.name, counts, tc.route)
		}
		if tc.route == RouteHVS {
			if got := p.HVS().Stats().Bytes; got != before+kept {
				t.Errorf("HVS Bytes = %d, want the result's %d plus the bodies' %d", got, before, kept)
			}
		}
	}
}

// TestServedBodiesFollowWrites serves cached answers over HTTP between
// random writes through Apply: object expansions the HVS keeps (a link
// write folds them, a type write evicts them) and property expansions
// the decomposer memo answers (a link write folds the memo, a type write
// drops it), the latter once with the HVS off so that the memo answers
// every read. Each answer is served before every write, so a body is
// kept beside it; its first serve after the write must read back as the
// engine's answer on the same store.
func TestServedBodiesFollowWrites(t *testing.T) {
	queries := []string{
		core.ObjectExpansionSPARQL(ex("C"), ex("p"), false),
		core.ObjectExpansionSPARQL(ex("C"), ex("q"), true),
		core.PropertyExpansionSPARQL(ex("C"), false),
		core.PropertyExpansionSPARQL(ex("C"), true),
	}
	var folds, typeWrites int
	for _, opts := range []Options{{HeavyThreshold: time.Nanosecond}, {HeavyThreshold: time.Hour}} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			st := foldStore(t, r)
			p := New(st, opts)
			srv := httptest.NewServer(endpoint.NewServer(p))
			eng := sparql.NewEngine(st)
			for step := 0; step < 40; step++ {
				for _, q := range queries {
					get(t, srv.Client(), srv, q, endpoint.ContentType)
				}
				d, typeWrite := foldDelta(r, st)
				before := p.HVS().Stats().DeltaFolded
				res, err := p.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Changed() {
					continue
				}
				folds += p.HVS().Stats().DeltaFolded - before
				if typeWrite {
					typeWrites++
				}
				for _, q := range queries {
					got, err := endpoint.UnmarshalResult(get(t, srv.Client(), srv, q, endpoint.ContentType))
					if err != nil {
						t.Fatal(err)
					}
					want, err := eng.Query(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if canon(got) != canon(want) {
						t.Fatalf("%+v seed %d step %d (type write %v): served %q\n%s\nengine\n%s", opts, seed, step, typeWrite, q, canon(got), canon(want))
					}
				}
			}
			srv.Close()
		}
	}
	if folds == 0 || typeWrites == 0 {
		t.Fatalf("the writes never folded an entry (%d) or wrote a type (%d)", folds, typeWrites)
	}
}

// BenchmarkServeHot times one repeated read over HTTP (httptest, one
// keep-alive client) through the endpoint and a proxy on a datagen store
// at two sizes: an object expansion the HVS answers, a property expansion
// the decomposer memo answers, and an answer over endpoint.BodyBytes the
// HVS answers (every Person). body_B is the response size.
func BenchmarkServeHot(b *testing.B) {
	person := datagen.Ont("Person")
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		st, err := datagen.Generate(cfg).NewStore()
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			src  string
			opts Options
		}{
			{"object/hvs", core.ObjectExpansionSPARQL(person, datagen.Ont("birthPlace"), false), Options{HeavyThreshold: time.Nanosecond}},
			{"property/memo", core.PropertyExpansionSPARQL(person, false), Options{HeavyThreshold: time.Nanosecond}},
			{"over-B/hvs", fmt.Sprintf("SELECT ?s WHERE { ?s a %s . }", person), Options{HeavyThreshold: time.Nanosecond}},
		} {
			b.Run(fmt.Sprintf("persons=%d/%s", persons, tc.name), func(b *testing.B) {
				srv := httptest.NewServer(endpoint.NewServer(New(st, tc.opts)))
				defer srv.Close()
				c := srv.Client()
				body := get(b, c, srv, tc.src, endpoint.ContentType) // warms the tier
				b.ReportAllocs()
				for b.Loop() {
					get(b, c, srv, tc.src, endpoint.ContentType)
				}
				b.ReportMetric(float64(len(body)), "body_B")
			})
		}
	}
}

// coldShapes are the six drill-down queries of the benchmark's
// sparql_backend workload: the subclass and object charts (grouped and
// ordered), a bar's member set, the Philosopher data table, a star join
// and a triangle join.
func coldShapes() []struct{ name, src string } {
	ont := datagen.Ont
	table := core.NewExplorer(store.New(0)).OpenPane(ont("Philosopher")).
		DataTable([]rdf.Term{ont("influencedBy"), ont("mainInterest")}, nil).Query
	return []struct{ name, src string }{
		{"chart.subclass", core.SubclassChartSPARQL(ont("Person"))},
		{"bar.set", fmt.Sprintf("SELECT DISTINCT ?s WHERE { ?s a %s . }", ont("Place"))},
		{"chart.object", core.ObjectExpansionSPARQL(ont("Person"), ont("birthPlace"), false)},
		{"table", table},
		{"join.star", fmt.Sprintf("SELECT ?s ?a ?b WHERE { ?s a %s . ?s %s ?a . ?s %s ?b . }", ont("Politician"), ont("birthPlace"), ont("nationality"))},
		{"join.triangle", fmt.Sprintf("SELECT ?a ?b ?t WHERE { ?a %s ?b . ?a a ?t . ?b a ?t . }", ont("influencedBy"))},
	}
}

// BenchmarkServeCold times the cold half of serving over HTTP (httptest,
// one keep-alive client) through the endpoint and a proxy on a datagen
// store at two sizes: each of the sparql_backend workload's six shapes,
// every request with a LIMIT no other request has, as the workload sends
// them, so that no cache tier can answer and the backend executes and
// the server encodes every time. body_B is the response size.
func BenchmarkServeCold(b *testing.B) {
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		st, err := datagen.Generate(cfg).NewStore()
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(endpoint.NewServer(New(st, Options{})))
		c := srv.Client()
		limit := 50_000_000 // above any answer: a unique LIMIT changes the text, not the answer
		for _, tc := range coldShapes() {
			b.Run(fmt.Sprintf("persons=%d/%s", persons, tc.name), func(b *testing.B) {
				body := get(b, c, srv, fmt.Sprintf("%s LIMIT %d", tc.src, limit), endpoint.ContentType)
				b.ReportAllocs()
				for b.Loop() {
					limit++
					get(b, c, srv, fmt.Sprintf("%s LIMIT %d", tc.src, limit), endpoint.ContentType)
				}
				b.ReportMetric(float64(len(body)), "body_B")
			})
		}
		srv.Close()
	}
}

// TestConcurrentBodiesUnderWrites reads answers from several goroutines
// while writes go through Apply (run it under -race): every kept body
// served is the encoding of the answer served with it.
func TestConcurrentBodiesUnderWrites(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st := foldStore(t, r)
	p := New(st, Options{HeavyThreshold: time.Nanosecond})
	queries := []string{core.ObjectExpansionSPARQL(ex("C"), ex("p"), false), core.PropertyExpansionSPARQL(ex("C"), true)}
	var wg sync.WaitGroup
	var kept atomic.Int32
	for g := 0; g < 4; g++ {
		ct := []string{endpoint.ContentType, endpoint.ContentTypeTSV}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// The cache tiers' answer with the body kept beside it;
				// QueryBody hands out only the body.
				req := p.newRequest(queries[i%2])
				h, served := p.tryCacheTiers(&req, ct)
				if !served { // the backend answers, and the HVS records it
					if _, _, err := p.QueryBody(context.Background(), queries[i%2], ct); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if h.body == nil { // too large to keep: the server encodes it
					continue
				}
				kept.Add(1)
				if want, _ := endpoint.EncodeBody(sparql.TableOf(h.result()), ct); !bytes.Equal(h.body, want) {
					t.Errorf("a kept body is not its answer's encoding:\n%s\n%s", h.body, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		d, _ := foldDelta(r, st)
		if _, err := p.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if kept.Load() == 0 {
		t.Fatal("no answer was served from a kept body")
	}
}
