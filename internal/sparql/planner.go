package sparql

import (
	"math"
	"sort"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Join ordering. The engine orders a BGP's triple patterns before
// execution so that index-backed joins run selective-first and cross
// products are deferred as long as possible. One orderer serves every
// BGP size: greedy (orderGreedy) takes the cheapest pattern first, then
// repeatedly the cheapest pattern connected to the bound variable set.
// Per-pattern cardinalities are exact (CardMatch on the columnar
// indexes); the estimated rows after each step, which EXPLAIN reports
// and the semi-join choice reads, come from the snapshot's per-predicate
// distinct subject/object counts under the independence assumption.
// Deterministic: ties always resolve to the earlier candidate.

// plannedStep is one pattern in the chosen join order, with the
// estimates the planner used (surfaced by EXPLAIN).
type plannedStep struct {
	tp      TriplePattern
	card    float64 // standalone cardinality of the pattern (exact)
	estRows float64 // estimated cumulative rows after joining it
}

// planOrder returns the patterns of a planBGP result in chosen order:
// tps itself when the planner kept query order (nil steps).
func planOrder(tps []TriplePattern, steps []plannedStep) []TriplePattern {
	if steps == nil {
		return tps
	}
	out := make([]TriplePattern, len(steps))
	for i, s := range steps {
		out[i] = s.tp
	}
	return out
}

// planBGP orders tps and returns the ordered patterns with their
// estimates, plus whether the orderer ran ("greedy"; surfaced as
// PlanReport.Mode). Nil steps with "none" mean "keep query order": there
// is nothing to order (at most one pattern) or the query is out of the
// planner's model.
func planBGP(snap *store.Snapshot, tps []TriplePattern) ([]plannedStep, string) {
	if len(tps) <= 1 {
		return nil, "none"
	}
	infos, ok := analyzePatterns(snap, tps)
	if !ok {
		return nil, "none"
	}
	return orderGreedy(infos), "greedy"
}

// patInfo is the planner's per-pattern working state.
type patInfo struct {
	tp   TriplePattern
	card float64 // exact standalone cardinality
	vars uint64  // bitmask of variable indices the pattern binds
	// slot[k] is the variable index at position k (S=0, P=1, O=2), or -1
	// for a constant. dv[k] estimates the distinct values the variable at
	// position k takes within this pattern's matches (0 for constants).
	slot [3]int
	dv   [3]float64
	// pred is the constant predicate's ID when the predicate position is
	// a dictionary-known constant.
	pred   rdf.ID
	predOK bool
}

// analyzePatterns resolves constants, assigns variable indices, and
// derives per-variable distinct-value estimates from the snapshot
// statistics. Returns ok=false when the query is out of the planner's
// model (more than 64 distinct variables).
func analyzePatterns(snap *store.Snapshot, tps []TriplePattern) ([]patInfo, bool) {
	ps := snap.PlanStats()
	varIdx := map[string]int{}
	infos := make([]patInfo, len(tps))
	for i, tp := range tps {
		in := &infos[i]
		in.tp = tp
		in.card = float64(estimate(snap, tp))
		for k, tv := range [3]TermOrVar{tp.S, tp.P, tp.O} {
			in.slot[k] = -1
			if !tv.IsVar {
				continue
			}
			v, ok := varIdx[tv.Name]
			if !ok {
				v = len(varIdx)
				if v >= 64 {
					return nil, false
				}
				varIdx[tv.Name] = v
			}
			in.slot[k] = v
			in.vars |= 1 << v
		}
		if !tp.P.IsVar {
			if id, ok := snap.Dict().Lookup(tp.P.Term); ok {
				in.pred, in.predOK = id, true
			}
		}
		for k := range in.slot {
			if in.slot[k] >= 0 {
				in.dv[k] = distinctValues(ps, in, k)
			}
		}
	}
	return infos, true
}

// distinctValues estimates how many distinct values the variable at
// position k takes within the pattern's matches, clamped to
// [1, max(card, 1)] — a variable can never take more distinct values
// than the pattern has matching triples.
func distinctValues(ps *store.PlanStats, in *patInfo, k int) float64 {
	dv := math.Max(in.card, 1)
	if ps != nil {
		switch k {
		case 0: // subject
			if st, ok := predStat(ps, in); ok {
				dv = float64(st.DistinctS)
			} else if ps.Subjects > 0 {
				dv = float64(ps.Subjects)
			}
		case 1: // predicate
			if len(ps.Preds) > 0 {
				dv = float64(len(ps.Preds))
			}
		case 2: // object
			if st, ok := predStat(ps, in); ok {
				dv = float64(st.DistinctO)
			} else if ps.Objects > 0 {
				dv = float64(ps.Objects)
			}
		}
	}
	return math.Min(math.Max(dv, 1), math.Max(in.card, 1))
}

func predStat(ps *store.PlanStats, in *patInfo) (store.PredStat, bool) {
	if !in.predOK {
		return store.PredStat{}, false
	}
	return ps.PredStatOf(in.pred)
}

// joinFactor returns the selectivity divisor for joining pattern in
// against already-bound variables: the product of the pattern's
// distinct-value counts over its positions whose variable is bound
// (System R's independence assumption, using the incoming pattern's
// side of 1/max(V_a, V_b); the incoming pattern is the more local, and
// usually the smaller, estimate).
func joinFactor(in *patInfo, boundVars uint64) float64 {
	f := 1.0
	for k, v := range in.slot {
		if v >= 0 && boundVars&(1<<v) != 0 {
			f *= in.dv[k]
		}
	}
	return f
}

// joinRows estimates the rows produced by joining pattern in against an
// intermediate result of prevRows rows binding boundVars.
func joinRows(prevRows float64, in *patInfo, boundVars uint64) float64 {
	return prevRows * in.card / joinFactor(in, boundVars)
}

// orderGreedy is selectivity-first greedy ordering: sort by standalone
// cardinality, then repeatedly pick the cheapest remaining pattern
// connected to the bound variable set. When nothing connects (the BGP
// has several components), the fallback picks the pattern whose
// component restarts cheapest — minimizing the estimated blowup of the
// forced cross product: its own cardinality times the best follow-up
// join selectivity any connected unused pattern would then enjoy,
// rather than its raw cardinality alone.
func orderGreedy(infos []patInfo) []plannedStep {
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return infos[order[a]].card < infos[order[b]].card
	})

	used := make([]bool, len(infos))
	var boundVars uint64
	rows := 1.0
	steps := make([]plannedStep, 0, len(infos))
	take := func(i int) {
		rows = joinRows(rows, &infos[i], boundVars)
		boundVars |= infos[i].vars
		used[i] = true
		steps = append(steps, plannedStep{tp: infos[i].tp, card: infos[i].card, estRows: rows})
	}
	for len(steps) < len(infos) {
		pick := -1
		for _, i := range order {
			if used[i] {
				continue
			}
			if len(steps) == 0 || infos[i].vars&boundVars != 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Cross-product fallback: minimize estimated blowup.
			bestBlowup := math.Inf(1)
			for _, i := range order {
				if used[i] {
					continue
				}
				follow, haveFollow := 1.0, false
				for _, j := range order {
					if used[j] || j == i || infos[j].vars&infos[i].vars == 0 {
						continue
					}
					if s := infos[j].card / joinFactor(&infos[j], infos[i].vars); !haveFollow || s < follow {
						follow, haveFollow = s, true
					}
				}
				if blowup := infos[i].card * follow; blowup < bestBlowup {
					bestBlowup = blowup
					pick = i
				}
			}
		}
		take(pick)
	}
	return steps
}

// estimate returns the snapshot cardinality of the pattern's constant
// skeleton (variables as wildcards). Constants not in the dictionary
// match nothing: estimate 0, the cheapest possible. Cardinalities come
// from the snapshot's columnar index offsets (CardMatch) in O(log n) —
// the planner never walks matching triples just to rank patterns, and it
// ranks them against exactly the data the query will read.
func estimate(snap *store.Snapshot, tp TriplePattern) int {
	resolve := func(tv TermOrVar) (rdf.ID, bool) {
		if tv.IsVar {
			return rdf.NoID, true
		}
		id, ok := snap.Dict().Lookup(tv.Term)
		return id, ok
	}
	s, okS := resolve(tp.S)
	p, okP := resolve(tp.P)
	o, okO := resolve(tp.O)
	if !okS || !okP || !okO {
		return 0
	}
	return snap.CardMatch(s, p, o)
}
