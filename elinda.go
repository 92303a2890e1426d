// Package elinda is the public facade of the eLinda linked-data explorer,
// a Go reproduction of "eLinda: Explorer for Linked Data" (Mishali, Yahav,
// Kalinsky, Kimelfeld — EDBT 2018).
//
// eLinda explores an RDF graph through bar charts: each chart shows the
// distribution of a URI set over classes or properties, and each bar can
// be expanded further (subclass, property, and object expansions — see
// internal/core for the formal model). The serving architecture combines
// three responsiveness techniques from the paper: chunked incremental
// evaluation, a heavy-query store (HVS), and a query decomposer backed by
// specialized aggregate indexes.
//
// Quick start:
//
//	ds := elinda.GenerateDBpediaLike(elinda.DefaultDataConfig())
//	sys, err := elinda.Open(ds.Triples)
//	...
//	chart := sys.Explorer.OpenRootPane().SubclassChart()
//	fmt.Print(elinda.RenderChart(chart))
//
// # Building and testing
//
// The repository is the single Go module "elinda"; `go build ./...` and
// `go test ./...` (or `make check`, which adds vet and the race detector)
// exercise everything, and cmd/elinda-server, cmd/elinda,
// cmd/elinda-gen and cmd/elinda-lint are the binaries.
//
// # Incremental evaluation
//
// Streaming chart construction (Pane.StreamPropertyChart, the property
// chart only) pages through one snapshot of the store's triple set in
// windows of N triples (index order — the store is a set and keeps no
// arrival order), emitting a partial chart after every round for at most
// k rounds. N and k are the IncrementalOptions argument of each call.
// Locally the whole chart from the store's kernel is faster than the
// first partial; partial charts pay against a slow remote endpoint.
package elinda

import (
	"fmt"
	"io"
	"time"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/endpoint"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/viz"
)

// System bundles a loaded dataset with every component of the eLinda
// architecture: the triple store, the explorer, and the query proxy
// (HVS + decomposer + generic engine).
type System struct {
	// Store is the dictionary-encoded triple store.
	Store *store.Store
	// Explorer evaluates bar expansions (the paper's formal model).
	Explorer *core.Explorer
	// Proxy routes SPARQL queries through the HVS and decomposer tiers.
	Proxy *proxy.Proxy
}

// Open loads triples and assembles the full system with default options
// (1-second heaviness threshold, all tiers enabled).
func Open(triples []rdf.Triple) (*System, error) {
	return OpenWithOptions(triples, proxy.Options{})
}

// OpenWithOptions is Open with explicit proxy routing options.
func OpenWithOptions(triples []rdf.Triple, opts proxy.Options) (*System, error) {
	st := store.New(len(triples))
	if _, err := st.Load(triples); err != nil {
		return nil, fmt.Errorf("elinda: %w", err)
	}
	return NewSystemFromStore(st, opts), nil
}

// NewSystemFromStore assembles the full system around an already-loaded
// store — the entry point for stores built by the streaming ingest
// pipeline (store.LoadStream) or restored from a binary snapshot
// (store.OpenSnapshot / OpenSnapshot), where the []rdf.Triple of Open
// never exists.
func NewSystemFromStore(st *store.Store, opts proxy.Options) *System {
	return &System{
		Store:    st,
		Explorer: core.NewExplorer(st),
		Proxy:    proxy.New(st, opts),
	}
}

// OpenSnapshot restores the system from a binary store snapshot written
// by System.Store.SaveSnapshot — a warm start that skips parsing,
// dictionary interning and index sorting entirely.
func OpenSnapshot(path string, opts proxy.Options) (*System, error) {
	st, err := store.OpenSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("elinda: %w", err)
	}
	return NewSystemFromStore(st, opts), nil
}

// OpenTurtle streams a Turtle document into a store (store.LoadStream)
// and assembles the system.
func OpenTurtle(r io.Reader) (*System, error) {
	return openStream(r, rdf.SyntaxTurtle)
}

// OpenNTriples streams an N-Triples document into a store
// (store.LoadStream) and assembles the system.
func OpenNTriples(r io.Reader) (*System, error) {
	return openStream(r, rdf.SyntaxNTriples)
}

func openStream(r io.Reader, syntax rdf.Syntax) (*System, error) {
	st := store.New(0)
	if _, err := st.LoadStream(r, store.StreamOptions{Syntax: syntax}); err != nil {
		return nil, fmt.Errorf("elinda: %w", err)
	}
	return NewSystemFromStore(st, proxy.Options{}), nil
}

// Endpoint returns an HTTP handler exposing the system's proxy as a
// SPARQL endpoint (SPARQL 1.1 JSON results), with the proxy wired as the
// update handler: POST /sparql with an application/sparql-update body (or
// an update= form field) mutates the knowledge base through the live
// mutation path.
func (s *System) Endpoint() *endpoint.Server {
	srv := endpoint.NewServer(s.Proxy)
	srv.Updater = s.Proxy
	return srv
}

// --- Live mutation path ---

// Delta is an ordered batch of triple mutations applied atomically; build
// one with DeltaOf or the chainable Delta.Insert / Delta.Delete.
type Delta = store.Delta

// ApplyResult reports what a Delta changed: the generation it moved the
// store across and the net inserted/deleted triples.
type ApplyResult = store.ApplyResult

// TripleOp is one signed mutation: an insert or a delete of a triple.
type TripleOp = rdf.TripleOp

// DeltaOf builds a Delta from mutation ops in order.
func DeltaOf(ops ...TripleOp) Delta { return store.DeltaOf(ops...) }

// Insert makes an insertion op for DeltaOf.
func Insert(t rdf.Triple) TripleOp { return rdf.Insert(t) }

// Delete makes a deletion op for DeltaOf.
func Delete(t rdf.Triple) TripleOp { return rdf.Delete(t) }

// Apply applies a mutation delta atomically: all ops as one generation
// step, durable before return when the store has a write-ahead log
// attached. It routes through the proxy when present, so heavy-query
// cache entries whose footprint is disjoint from the delta survive the
// write; without a proxy it mutates the store directly.
func (s *System) Apply(d Delta) (ApplyResult, error) {
	if s.Proxy != nil {
		return s.Proxy.Apply(d)
	}
	return s.Store.Apply(d)
}

// Warm precomputes the level-zero property aggregates (both directions)
// for the root class, like the paper's eLinda endpoint does for its
// mirrored knowledge bases.
func (s *System) Warm() {
	h := s.Explorer.Hierarchy()
	if root := h.Root(); root != rdf.NoID {
		s.Proxy.Decomposer().Warm(root)
	}
}

// IncrementalOptions configures streaming (chunked) chart construction:
// the administrator's N (ChunkSize) and k (MaxRounds).
type IncrementalOptions = core.IncrementalOptions

// --- Re-exported configuration and helpers ---

// DataConfig configures the synthetic DBpedia-like dataset generator.
type DataConfig = datagen.Config

// DefaultDataConfig returns the test-scale generator configuration.
func DefaultDataConfig() DataConfig { return datagen.DefaultConfig() }

// GenerateDBpediaLike builds the synthetic DBpedia-like dataset whose
// shape matches the statistics quoted in the paper.
func GenerateDBpediaLike(cfg DataConfig) *datagen.Dataset { return datagen.Generate(cfg) }

// GenerateLinkedGeoDataLike builds the rootless geographic dataset.
func GenerateLinkedGeoDataLike(cfg datagen.LGDConfig) *datagen.Dataset {
	return datagen.GenerateLGD(cfg)
}

// RenderChart renders a chart as a text bar chart with default options.
func RenderChart(c *core.Chart) string {
	return viz.Chart(c, viz.Options{})
}

// RenderChartCoverage renders a property chart with coverage percentages.
func RenderChartCoverage(c *core.Chart) string {
	return viz.Chart(c, viz.Options{ShowCoverage: true})
}

// DefaultHeavyThreshold is the paper's 1-second heaviness cutoff.
const DefaultHeavyThreshold = time.Second
