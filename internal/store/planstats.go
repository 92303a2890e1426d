package store

import (
	"slices"

	"elinda/internal/rdf"
)

// This file computes the snapshot statistics the query planner's cost
// model runs on: per-predicate triple counts, distinct-subject and
// distinct-object counts per predicate, and characteristic sets (Neumann
// & Moerkotte, ICDE 2011) — the distinct predicate combinations subjects
// carry, with occurrence totals. Everything derives from the columnar
// permutation indexes in one linear pass, is computed once when a
// columnar base is built (bulk load, fold, compaction), and is persisted
// in the binary snapshot format so a snapshot load gets it for free.
//
// The statistics describe the columnar base only. Overlay triples and
// tombstones ride on top of a base until the next fold; estimates from a
// slightly stale base are fine for ranking join orders (the executor
// always reads exact, tombstone-subtracted postings), and the fold that
// absorbs the overlay rebuilds the statistics from the surviving triples.

// maxCharSets bounds the retained characteristic sets. Real datasets
// concentrate subjects in few sets (YAGO: tens for millions of
// subjects); the cap only trims pathological long tails, and the planner
// scales estimates by the retained coverage.
const maxCharSets = 1024

// PredStat summarizes one predicate: total triples and distinct
// subject/object counts.
type PredStat struct {
	Pred      rdf.ID
	Count     uint32 // triples with this predicate
	DistinctS uint32 // distinct subjects among them
	DistinctO uint32 // distinct objects among them
}

// CharSet is one characteristic set: the exact sorted predicate set some
// subjects share, how many subjects carry it, and the total triple count
// per predicate over those subjects (Occ is parallel to Preds).
type CharSet struct {
	Preds []rdf.ID
	Count uint32
	Occ   []uint32
}

// PlanStats is the planner-facing statistics bundle of one columnar base.
type PlanStats struct {
	Triples  int
	Subjects int // distinct subjects
	Objects  int // distinct objects
	// Preds is sorted by predicate ID ascending.
	Preds []PredStat
	// CharSets is sorted by Count descending (ties broken by predicate
	// sequence) and capped at maxCharSets.
	CharSets []CharSet
	// CharSetSubjects counts the subjects the retained CharSets cover —
	// equal to Subjects unless the cap trimmed a long tail.
	CharSetSubjects int
}

// computePlanStats derives the statistics from the columnar indexes: the
// POS index yields per-predicate counts and distinct objects directly
// from its offsets, and one pass over the SPO index's subject groups
// yields distinct subjects per predicate plus the characteristic sets
// (each subject's predicate span is already sorted and distinct).
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

	type csAcc struct {
		preds []rdf.ID
		count uint32
		occ   []uint32
	}
	spo := &col.spo
	sets := make(map[string]*csAcc)
	var keyBuf []byte
	for ai := range spo.aKeys {
		lo, hi := spo.aOff[ai], spo.aOff[ai+1]
		preds := spo.bKeys[lo:hi]
		keyBuf = keyBuf[:0]
		for _, p := range preds {
			ps.Preds[predIdx[p]].DistinctS++
			keyBuf = append(keyBuf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
		}
		acc := sets[string(keyBuf)]
		if acc == nil {
			acc = &csAcc{
				preds: append([]rdf.ID(nil), preds...),
				occ:   make([]uint32, len(preds)),
			}
			sets[string(keyBuf)] = acc
		}
		acc.count++
		for k := range acc.occ {
			j := lo + uint32(k)
			acc.occ[k] += spo.bOff[j+1] - spo.bOff[j]
		}
	}
	all := make([]*csAcc, 0, len(sets))
	for _, acc := range sets {
		all = append(all, acc)
	}
	slices.SortFunc(all, func(a, b *csAcc) int {
		if a.count != b.count {
			if a.count > b.count {
				return -1
			}
			return 1
		}
		if len(a.preds) != len(b.preds) {
			return len(a.preds) - len(b.preds)
		}
		return slices.Compare(a.preds, b.preds)
	})
	if len(all) > maxCharSets {
		all = all[:maxCharSets]
	}
	ps.CharSets = make([]CharSet, len(all))
	for i, acc := range all {
		ps.CharSets[i] = CharSet{Preds: acc.preds, Count: acc.count, Occ: acc.occ}
		ps.CharSetSubjects += int(acc.count)
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

// StarCard estimates how many rows a subject star over the given
// predicate set produces: for every characteristic set containing all of
// them, the covered subjects contribute the product of their mean
// per-predicate fanouts. preds must be sorted ascending and distinct.
// The result is scaled up for subjects the retained sets do not cover.
func (ps *PlanStats) StarCard(preds []rdf.ID) (float64, bool) {
	if len(preds) == 0 || len(ps.CharSets) == 0 || ps.CharSetSubjects == 0 {
		return 0, false
	}
	var total float64
	for _, cs := range ps.CharSets {
		rows := float64(cs.Count)
		j := 0
		for _, p := range preds {
			for j < len(cs.Preds) && cs.Preds[j] < p {
				j++
			}
			if j >= len(cs.Preds) || cs.Preds[j] != p {
				rows = 0
				break
			}
			rows *= float64(cs.Occ[j]) / float64(cs.Count)
		}
		total += rows
	}
	if ps.CharSetSubjects < ps.Subjects {
		total *= float64(ps.Subjects) / float64(ps.CharSetSubjects)
	}
	return total, true
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
