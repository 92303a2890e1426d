package store

import (
	"slices"

	"elinda/internal/rdf"
)

// This file computes the snapshot statistics the query planner's
// estimates run on: per-predicate triple counts and distinct-subject and
// distinct-object counts per predicate. Everything derives from the
// columnar permutation indexes in one linear pass, is computed once when
// a columnar base is built (bulk load, fold, compaction), and is
// persisted in the binary snapshot format so a snapshot load gets it for
// free.
//
// The statistics describe the columnar base only. Overlay triples and
// tombstones ride on top of a base until the next fold; estimates from a
// slightly stale base are fine for ranking join orders (the executor
// always reads exact, tombstone-subtracted postings), and the fold that
// absorbs the overlay rebuilds the statistics from the surviving triples.

// PredStat summarizes one predicate: total triples and distinct
// subject/object counts.
type PredStat struct {
	Pred      rdf.ID
	Count     uint32 // triples with this predicate
	DistinctS uint32 // distinct subjects among them
	DistinctO uint32 // distinct objects among them
}

// PlanStats is the planner-facing statistics bundle of one columnar base.
type PlanStats struct {
	Triples  int
	Subjects int // distinct subjects
	Objects  int // distinct objects
	// Preds is sorted by predicate ID ascending.
	Preds []PredStat
}

// computePlanStats derives the statistics from the columnar indexes: the
// POS index yields per-predicate counts and distinct objects directly
// from its offsets, and one pass over the SPO index's subject groups
// yields distinct subjects per predicate (each subject's predicate span
// is already sorted and distinct).
func computePlanStats(col *columnar) *PlanStats {
	ps := &PlanStats{
		Triples:  col.n,
		Subjects: len(col.spo.aKeys),
		Objects:  len(col.osp.aKeys),
	}
	pos := &col.pos
	ps.Preds = make([]PredStat, len(pos.aKeys))
	predIdx := make(map[rdf.ID]int, len(pos.aKeys))
	for i, p := range pos.aKeys {
		ps.Preds[i] = PredStat{
			Pred:      p,
			Count:     pos.bOff[pos.aOff[i+1]] - pos.bOff[pos.aOff[i]],
			DistinctO: pos.aOff[i+1] - pos.aOff[i],
		}
		predIdx[p] = i
	}
	for _, p := range col.spo.bKeys {
		ps.Preds[predIdx[p]].DistinctS++
	}
	return ps
}

// PredStatOf returns the statistics of one predicate (binary search).
func (ps *PlanStats) PredStatOf(p rdf.ID) (PredStat, bool) {
	i, ok := slices.BinarySearchFunc(ps.Preds, p, func(st PredStat, p rdf.ID) int {
		if st.Pred < p {
			return -1
		}
		if st.Pred > p {
			return 1
		}
		return 0
	})
	if !ok {
		return PredStat{}, false
	}
	return ps.Preds[i], true
}

// planStats returns the base's statistics. Every base-construction path
// computes them eagerly; the fallback computes on the spot (without
// caching — published bases are shared immutable data) so a zero-value
// base can never crash a caller.
func (c *columnar) planStats() *PlanStats {
	if c.stats != nil {
		return c.stats
	}
	return computePlanStats(c)
}

// PlanStats returns the statistics of the snapshot's columnar base,
// computed once when the base was built (or hydrated from a persisted
// snapshot). Overlay-only snapshots share their base — and therefore its
// statistics — with the snapshot the base was published under.
func (s *Snapshot) PlanStats() *PlanStats { return s.base.stats }
