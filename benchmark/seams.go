package main

// seams.go is the only file of the benchmark that imports eLinda's
// packages. Every call into the program under test goes through one of
// the functions below, so a later signature change breaks exactly this
// file, in one reviewable place. README.md ("Seams") keeps the frozen
// list of what is called. Spans are opened here, at the call sites;
// what is done with them is in trace.go and layers.go.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"time"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/incremental"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
	"elinda/internal/wal"
)

// Namespaces of the generated dataset.
const (
	ontNS = datagen.OntNS
	resNS = datagen.ResNS
)

// triple is a resource-to-resource statement given as three IRIs; the
// rest of the benchmark never sees an rdf.Term.
type triple struct{ S, P, O string }

// generated is the seam's view of a datagen.Dataset.
type generated struct {
	ds *datagen.Dataset
}

func generate(seed int64, persons int) *generated {
	return &generated{ds: datagen.Generate(datagen.Config{
		Seed: seed, Persons: persons, PoliticianProps: 120, ErrorRate: 0.02,
	})}
}

// facts are the planted ground-truth numbers the checks compare against.
type facts struct {
	TopLevelClasses, EmptyTopLevelClasses  int
	Philosophers, Politicians, Scientists  int
	PhilosopherIngoingAboveThreshold       int
	PoliticianPropsAboveThreshold, Triples int
}

func (g *generated) facts() facts {
	f := g.ds.Facts
	return facts{
		TopLevelClasses: f.TopLevelClasses, EmptyTopLevelClasses: f.EmptyTopLevelClasses,
		Philosophers: f.Philosophers, Politicians: f.Politicians, Scientists: f.Scientists,
		PhilosopherIngoingAboveThreshold: f.PhilosopherIngoingAboveThreshold,
		PoliticianPropsAboveThreshold:    f.PoliticianPropsAboveThreshold,
		Triples:                          f.Triples,
	}
}

// scan makes one pass over the generated triples and returns what the
// harness needs as an oracle independent of the store: how many subjects
// carry each rdf:type, the existing subject|object pairs of the given
// predicates (so generated writes never collide with base data), and a
// SHA-256 over a fixed sample of the triples that identifies the dataset.
func (g *generated) scan(pairPreds ...string) (typeCounts map[string]int, pairs map[string]struct{}, digest string) {
	typeCounts = map[string]int{}
	pairs = map[string]struct{}{}
	want := map[string]bool{}
	for _, p := range pairPreds {
		want[p] = true
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", len(g.ds.Triples))
	for i, t := range g.ds.Triples {
		if t.P == rdf.TypeIRI {
			typeCounts[t.O.Value]++
		} else if want[t.P.Value] {
			pairs[t.S.Value+"|"+t.O.Value] = struct{}{}
		}
		if i%997 == 0 {
			fmt.Fprintln(h, t.String())
		}
	}
	return typeCounts, pairs, hex.EncodeToString(h.Sum(nil))
}

func (g *generated) writeNTriples(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rdf.WriteNTriples(f, g.ds.Triples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (g *generated) writeSnapshot(path string) error {
	st := store.New(len(g.ds.Triples))
	if _, err := st.Load(g.ds.Triples); err != nil {
		return err
	}
	return st.SaveSnapshot(path)
}

// iriTriple builds a resource-to-resource triple from three IRIs.
func iriTriple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

// seedWAL writes one insert record per triple into a fresh WAL directory
// (no fsync: the files are complete before any server reads them).
func seedWAL(dir string, ts []triple) error {
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		return err
	}
	for _, t := range ts {
		if err := w.AppendOps([]rdf.TripleOp{rdf.Insert(iriTriple(t.S, t.P, t.O))}); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// --- SPARQL text the explorer generates ---

func subclassChartSPARQL(classIRI string) string {
	return core.SubclassChartSPARQL(rdf.NewIRI(classIRI))
}

func propertyExpansionSPARQL(classIRI string, incoming bool) string {
	return core.PropertyExpansionSPARQL(rdf.NewIRI(classIRI), incoming)
}

func objectExpansionSPARQL(classIRI, propIRI string) string {
	return core.ObjectExpansionSPARQL(rdf.NewIRI(classIRI), rdf.NewIRI(propIRI), false)
}

// tableSPARQL is the query the explorer shows under a data table. The
// text depends only on the class and columns, so an explorer over an
// empty store renders it.
func tableSPARQL(classIRI string, propIRIs []string) string {
	props := make([]rdf.Term, len(propIRIs))
	for i, iri := range propIRIs {
		props[i] = rdf.NewIRI(iri)
	}
	pane := core.NewExplorer(store.New(0)).OpenPane(rdf.NewIRI(classIRI))
	return pane.DataTable(props, nil).Query
}

const owlThing = rdf.OWLThing

// --- boot-path layers ---

// parseOnly runs the rdf layer alone over an N-Triples file and returns
// the number of triples parsed.
func parseOnly(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	err = rdf.StreamChunks(f, rdf.SyntaxNTriples, 0, func(c rdf.Chunk) error {
		return c.Parse(func(rdf.Triple) error { n++; return nil })
	})
	return n, err
}

// loadStream is the server's cold-boot ingest (rdf + store).
func loadStream(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return store.New(0).LoadStream(f, store.StreamOptions{Syntax: rdf.SyntaxNTriples})
}

// walProbe is a standalone WAL under the always policy, for timing the
// wal layer alone.
type walProbe struct{ w *wal.WAL }

func openWALProbe(dir string) (walProbe, error) {
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	return walProbe{w}, err
}

func (p walProbe) append(t triple) error {
	return p.w.AppendOps([]rdf.TripleOp{rdf.Insert(iriTriple(t.S, t.P, t.O))})
}

// close returns the records appended and the bytes they took.
func (p walProbe) close() (appends uint64, bytes int64, err error) {
	st := p.w.Stats()
	return st.Appends, st.ActiveBytes, p.w.Close()
}

// --- the in-process system the traced replay drives ---

// system is the server's query stack assembled in-process from the same
// public constructors cmd/elinda-server uses, with the benchmark's span
// recorder spliced in at the two interface seams the program offers:
// endpoint.Executor (in front of the proxy) and the proxy's backend.
type system struct {
	st   *store.Store
	expl *core.Explorer
	eng  *sparql.Engine
	px   *proxy.Proxy
	srv  *endpoint.Server
	wal  *wal.WAL
	rec  *recorder
}

// openSystem restores the snapshot; wire completes the stack.
func openSystem(snapPath string, rec *recorder) (*system, error) {
	st, err := store.OpenSnapshot(snapPath)
	if err != nil {
		return nil, err
	}
	return &system{st: st, rec: rec, expl: core.NewExplorer(st), eng: sparql.NewEngine(st)}, nil
}

// replayWAL applies the records of a WAL directory the way the server's
// boot does and returns how many there were.
func (s *system) replayWAL(dir string) (int, error) {
	w, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	s.wal = w
	return w.ReplayOps(func(op rdf.TripleOp) error {
		_, err := s.st.Apply(store.DeltaOf(op))
		return err
	})
}

// attachWAL makes later writes durable before they are acknowledged,
// like -wal-dir with -wal-sync always; call it after replayWAL.
func (s *system) attachWAL() { s.st.AttachWAL(s.wal) }

// wire builds the proxy and the endpoint over the store; heavy is the
// server's -heavy flag (0 = the program's default).
func (s *system) wire(heavy time.Duration) {
	s.px = proxy.NewWithBackend(s.st, tracedBackend{s}, proxy.Options{HeavyThreshold: heavy})
	front := tracedProxy{s}
	s.srv = endpoint.NewServer(front)
	s.srv.Updater = front
}

func (s *system) close() {
	if s.wal != nil {
		s.wal.Close()
	}
}

// warm is System.Warm: the level-zero aggregates of the root class.
func (s *system) warm() {
	if root := s.expl.Hierarchy().Root(); root != rdf.NoID {
		s.px.Decomposer().Warm(root)
	}
}

func (s *system) triples() int { return s.st.Len() }

// tracedBackend is the proxy's backend tier: sparql.Engine.Query split
// into its two public halves so each gets a span.
type tracedBackend struct{ s *system }

func (b tracedBackend) Query(ctx context.Context, src string) (*sparql.Result, error) {
	defer b.s.rec.span("sparql.backend")()
	endParse := b.s.rec.span("sparql.parse")
	q, err := sparql.Parse(src)
	endParse()
	if err != nil {
		return nil, err
	}
	endExec := b.s.rec.span("sparql.exec")
	res, err := b.s.eng.Execute(ctx, q)
	endExec()
	if err == nil {
		b.s.rec.count("sparql.rows_out", len(res.Rows))
	}
	return res, err
}

// tracedProxy stands where *proxy.Proxy stands in the server: it is the
// endpoint's Executor, RowExecutor and Updater.
type tracedProxy struct{ s *system }

func (p tracedProxy) Query(ctx context.Context, src string) (*sparql.Result, error) {
	defer p.s.rec.span("proxy.query")()
	return p.s.px.Query(ctx, src)
}

// QueryRows hands the proxy a sink that clocks the endpoint's streaming
// encoder: the proxy calls the encoder back row by row, so without the
// clock the encoding would count as the proxy's own time.
func (p tracedProxy) QueryRows(ctx context.Context, src string, sink sparql.RowSink) error {
	defer p.s.rec.span("proxy.query")()
	if !p.s.rec.enabled {
		return p.s.px.QueryRows(ctx, src, sink)
	}
	clocked := &clockedSink{sink: sink}
	err := p.s.px.QueryRows(ctx, src, clocked)
	p.s.rec.child("endpoint.encode", clocked.total)
	return err
}

// clockedSink sums the time spent inside the wrapped sink.
type clockedSink struct {
	sink  sparql.RowSink
	total time.Duration
}

func (c *clockedSink) Head(vars []string, ask, askTrue bool) error {
	t0 := time.Now()
	err := c.sink.Head(vars, ask, askTrue)
	c.total += time.Since(t0)
	return err
}

func (c *clockedSink) Row(sol sparql.Solution) error {
	t0 := time.Now()
	err := c.sink.Row(sol)
	c.total += time.Since(t0)
	return err
}

// Update is proxy.Proxy.Update's three public steps, one span each.
func (p tracedProxy) Update(ctx context.Context, src string) (store.ApplyResult, error) {
	defer p.s.rec.span("proxy.update")()
	endParse := p.s.rec.span("sparql.parse_update")
	u, err := sparql.ParseUpdate(src)
	endParse()
	if err != nil {
		return store.ApplyResult{}, err
	}
	endOps := p.s.rec.span("sparql.update_ops")
	ops, err := p.s.eng.UpdateOps(ctx, u)
	endOps()
	if err != nil {
		return store.ApplyResult{}, err
	}
	defer p.s.rec.span("proxy.apply")()
	return p.s.px.Apply(store.DeltaOf(ops...))
}

// serveSPARQL pushes one /sparql request through the endpoint layer.
func (s *system) serveSPARQL(w http.ResponseWriter, r *http.Request) {
	defer s.rec.span("endpoint.serve")()
	s.srv.ServeHTTP(w, r)
}

// planOnly is Engine.Explain: parse + plan, no execution.
func (s *system) planOnly(ctx context.Context, src string) error {
	_, err := s.eng.Explain(ctx, src)
	return err
}

func parseQuery(src string) error {
	_, err := sparql.Parse(src)
	return err
}

// hvsLookup probes the cache tier directly.
func (s *system) hvsLookup(src string) bool {
	_, ok := s.px.HVS().Lookup(src, s.st.Generation())
	return ok
}

// decomposerTry probes the index tier directly.
func (s *system) decomposerTry(src string) (bool, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return false, err
	}
	_, ok := s.px.Decomposer().TryExecute(q)
	return ok, nil
}

// applyOne applies a single-triple delta straight to the store layer
// (no proxy, so no cache maintenance is included).
func (s *system) applyOne(t triple, del bool) error {
	op := rdf.Insert(iriTriple(t.S, t.P, t.O))
	if del {
		op = rdf.Delete(op.Triple)
	}
	_, err := s.st.Apply(store.DeltaOf(op))
	return err
}

// --- the explorer calls behind the /api/* handlers ---
// Each mirrors the handler of the same name in cmd/elinda-server/api.go,
// minus the JSON encoding, which lives in the server's main package.

func (s *system) pane(classIRI string) *core.Pane {
	defer s.rec.span("core.open_pane")()
	if classIRI == "" {
		return s.expl.OpenRootPane()
	}
	return s.expl.OpenPane(rdf.NewIRI(classIRI))
}

func (s *system) apiClasses(q string) {
	defer s.rec.span("store.search_classes")()
	for _, id := range s.st.SearchClasses(q) {
		_ = s.st.Label(id)
	}
}

func (s *system) apiPane(classIRI string) {
	p := s.pane(classIRI)
	defer s.rec.span("core.pane_stats")()
	p.Stats()
}

func (s *system) apiChart(classIRI, kind string) error {
	p := s.pane(classIRI)
	switch kind {
	case "subclass":
		defer s.rec.span("core.subclass_chart")()
		p.SubclassChart()
	case "property", "property-in":
		defer s.rec.span("core.property_chart")()
		p.PropertyChart(kind == "property-in", -1)
	default:
		return fmt.Errorf("unknown chart kind %q", kind)
	}
	return nil
}

func (s *system) apiConnections(classIRI, propIRI string) error {
	p := s.pane(classIRI)
	defer s.rec.span("core.connections_chart")()
	_, err := p.ConnectionsChart(rdf.NewIRI(propIRI), false)
	return err
}

func (s *system) apiTable(classIRI string, propIRIs []string) {
	p := s.pane(classIRI)
	defer s.rec.span("core.data_table")()
	props := make([]rdf.Term, len(propIRIs))
	for i, iri := range propIRIs {
		props[i] = rdf.NewIRI(iri)
	}
	p.DataTable(props, nil)
}

// streamPropertyChart runs the paper's third tier (chunked incremental
// evaluation, library-default chunk) and calls onPartial after each round.
func (s *system) streamPropertyChart(ctx context.Context, classIRI string, onPartial func(complete bool)) error {
	p := s.expl.OpenPane(rdf.NewIRI(classIRI))
	_, err := p.StreamPropertyChart(ctx, false, core.IncrementalOptions{},
		func(_ *core.Chart, snap incremental.Snapshot) bool {
			onPartial(snap.Complete)
			return true
		})
	return err
}
