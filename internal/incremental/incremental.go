// Package incremental implements eLinda's incremental evaluation
// (Section 4): "eLinda builds the chart of an expansion by computing it on
// the first N triples in the RDF graph. It then continues to compute the
// query on the next N triples and aggregates the results in the frontend.
// It continues for k steps, or until the full chart is computed. In the
// current implementation, the parameters N and k are determined by an
// administrator's configuration."
//
// The evaluator pages through one snapshot of the store's triple set in
// windows of N (in the snapshot's index order — the paper pages ?s ?p ?o
// by LIMIT/OFFSET in whatever order its endpoint has), feeds each window
// to a chart Aggregator, and emits a partial snapshot after every round —
// the frontend-side aggregation that gives "effective latency for user
// interaction". It works against any triple source that supports offset
// scans, which is why it also functions in the remote compatibility mode
// (a remote endpoint can serve OFFSET/LIMIT windows).
package incremental

import (
	"context"
	"fmt"
	"maps"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Config carries the administrator-set parameters.
type Config struct {
	// ChunkSize is N, the number of triples per round. Values <= 0 default
	// to DefaultChunkSize.
	ChunkSize int
	// MaxRounds is k, the number of rounds before the evaluator stops even
	// if the scan is incomplete. 0 means scan to completion.
	MaxRounds int
}

// DefaultChunkSize is the default N.
const DefaultChunkSize = 100_000

// Aggregator consumes triples and maintains partial chart counts.
// PropertyAggregator, the property expansion of Section 2, is the one
// implementation.
type Aggregator interface {
	// Observe processes one triple from the scan.
	Observe(e rdf.EncodedTriple)
	// Counts returns the current per-label counts. The returned map is a
	// snapshot; the aggregator keeps ownership of its internal state.
	Counts() map[rdf.ID]int
}

// Snapshot is the state published after each round.
type Snapshot struct {
	// Round is the 1-based round number.
	Round int
	// TriplesSeen is the total number of triples scanned so far.
	TriplesSeen int
	// Counts maps chart labels to their partial counts.
	Counts map[rdf.ID]int
	// Complete reports whether every triple of the snapshot the run is
	// bound to has been scanned.
	Complete bool
	// View is that store snapshot (nil for a remote run).
	View *store.Snapshot
}

// Evaluator runs chunked scans over a store.
type Evaluator struct {
	st  *store.Store
	cfg Config
}

// New returns an evaluator with the given configuration.
func New(st *store.Store, cfg Config) *Evaluator {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	return &Evaluator{st: st, cfg: cfg}
}

// Run scans the store in chunks, feeding agg. After each round it calls
// onRound with a snapshot; returning false stops the evaluation early.
// The final snapshot is returned. Run honors ctx cancellation between
// rounds.
//
// The whole run reads the one store snapshot bound when it starts: scan
// positions only mean something within a snapshot, so a write landing
// between rounds neither shifts the windows (skipping or repeating
// triples) nor moves the length completeness is judged against. That
// judgement is the scan position against the snapshot's length, not a
// short round: a length that is an exact multiple of ChunkSize completes
// on its last full round instead of burning an extra empty one.
func (ev *Evaluator) Run(ctx context.Context, agg Aggregator, onRound func(Snapshot) bool) (Snapshot, error) {
	view := ev.st.Snapshot()
	offset := 0
	round := 0
	for {
		if err := ctx.Err(); err != nil {
			return Snapshot{}, fmt.Errorf("incremental: %w", err)
		}
		offset += view.Scan(offset, ev.cfg.ChunkSize, func(e rdf.EncodedTriple) bool {
			agg.Observe(e)
			return true
		})
		round++
		snap := Snapshot{
			Round:       round,
			TriplesSeen: offset,
			Counts:      agg.Counts(),
			Complete:    offset >= view.Len(),
			View:        view,
		}
		stop := snap.Complete ||
			(ev.cfg.MaxRounds > 0 && round >= ev.cfg.MaxRounds)
		if onRound != nil && !onRound(snap) {
			return snap, nil
		}
		if stop {
			return snap, nil
		}
	}
}

// PropertyAggregator counts, per property, the distinct members of S that
// feature the property (outgoing) or are targeted by it (incoming) — the
// coverage numerator of the property chart.
type PropertyAggregator struct {
	s        map[rdf.ID]struct{}
	incoming bool
	// seen deduplicates (anchor, property) pairs across chunks.
	seen    map[[2]rdf.ID]struct{}
	counts  map[rdf.ID]int
	triples map[rdf.ID]int
}

// NewPropertyAggregator builds a property-chart aggregator over the URI
// set s (nil = all subjects).
func NewPropertyAggregator(s []rdf.ID, incoming bool) *PropertyAggregator {
	a := &PropertyAggregator{
		incoming: incoming,
		seen:     make(map[[2]rdf.ID]struct{}),
		counts:   make(map[rdf.ID]int),
		triples:  make(map[rdf.ID]int),
	}
	if s != nil {
		a.s = make(map[rdf.ID]struct{}, len(s))
		for _, id := range s {
			a.s[id] = struct{}{}
		}
	}
	return a
}

// Observe implements Aggregator.
func (a *PropertyAggregator) Observe(e rdf.EncodedTriple) {
	anchor := e.S
	if a.incoming {
		anchor = e.O
	}
	if a.s != nil {
		if _, in := a.s[anchor]; !in {
			return
		}
	}
	a.triples[e.P]++
	key := [2]rdf.ID{anchor, e.P}
	if _, dup := a.seen[key]; !dup {
		a.seen[key] = struct{}{}
		a.counts[e.P]++
	}
}

// Counts implements Aggregator.
func (a *PropertyAggregator) Counts() map[rdf.ID]int { return maps.Clone(a.counts) }

// TripleCounts returns the per-property triple totals (the SUM(?sp) of the
// paper's query).
func (a *PropertyAggregator) TripleCounts() map[rdf.ID]int { return maps.Clone(a.triples) }
