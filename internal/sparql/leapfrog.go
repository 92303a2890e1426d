package sparql

// Multiway sorted-merge intersection ("leapfrog" join, after Veldhuizen's
// leapfrog triejoin, ICDT 2014). When two or more patterns of a BGP
// co-constrain the same single free variable — every other position a
// constant or a slot bound by earlier steps — the executor intersects
// their sorted posting lists simultaneously with galloping seeks instead
// of scanning one pattern and probing the rest row by row. For cyclic
// shapes (triangles, diamonds) and high-fanout stars this is the
// worst-case-optimal move: the work is bounded by the smallest posting
// list, not by the intermediate result a cascaded binary join would
// materialize.
//
// The chain compiles to joinSteps up front: a step is a single pattern
// (scan/probe), a single-pattern semi-join (semijoin.go) or a leapfrog
// group. Compilation simulates the bound-slot set in plan order, so a
// pattern joins a group only when its remaining positions are all
// available at that depth; pulling it forward never changes the result
// set (joins commute). The group emits its variable in ascending ID
// order (Postings merge-sorts base and overlay), so execution stays
// fully deterministic — identical rows in identical order on every run —
// though the order may differ from cascaded execution, whose
// Match enumerates the base before the overlay rather than merged.

import (
	"fmt"

	"elinda/internal/rdf"
)

// joinStep is one node of the compiled pattern chain: a single pattern
// (slot < 0) scanned or probed per row, a single-pattern semi-join
// (semi != nil, see semijoin.go), or a leapfrog group intersecting on
// slot.
type joinStep struct {
	pats []compiledPattern
	slot int
	semi *semiSet
}

// maxLeapfrogGroup caps a group's size so the executor can hold the
// posting-list cursors in a fixed-size stack array (no per-step heap
// allocation, and no retained references to the snapshot's zero-copy
// posting views).
const maxLeapfrogGroup = 8

// compileSteps folds the compiled patterns into joinSteps, simulating
// the bound-slot set in chain order from nothing (slots the input rows
// bind are not counted, which only forgoes a step kind). With leapfrog
// disabled no pattern moves and no group forms; grouping requires the
// initial binding row to be empty (the caller gates on it). A pattern
// whose one variable an earlier step binds becomes a semi-join when the
// planner's estimates say the set pays for itself; plan, when non-nil,
// holds those estimates aligned with pats.
func compileSteps(pats []compiledPattern, plan []plannedStep, width int, leapfrog bool) []joinStep {
	steps := make([]joinStep, 0, len(pats))
	bound := make([]bool, width)
	consumed := make([]bool, len(pats))
	//lint:ignore ctxloop bounded by the query's pattern count, not by data size
	for i := range pats {
		if consumed[i] {
			continue
		}
		consumed[i] = true
		cp := pats[i]
		// A semi-join candidate follows the step that bound its variable,
		// so plan[i-1]'s estimate is the rows it will probe. Without
		// estimates the lazy set still costs nothing when no row arrives.
		if slot, ok := semiJoinSlot(cp, bound); ok && (plan == nil || semiJoinPays(plan[i-1].estRows, plan[i].card)) {
			steps = append(steps, joinStep{pats: pats[i : i+1], slot: -1, semi: newSemiSet(cp, slot)})
			continue
		}
		if slot, ok := soleFreeSlot(cp, bound); ok && leapfrog && !cp.dead {
			group := []compiledPattern{cp}
			for j := i + 1; j < len(pats) && len(group) < maxLeapfrogGroup; j++ {
				if consumed[j] || pats[j].dead {
					continue
				}
				if s, ok := soleFreeSlot(pats[j], bound); ok && s == slot {
					group = append(group, pats[j])
					consumed[j] = true
				}
			}
			if len(group) >= 2 {
				steps = append(steps, joinStep{pats: group, slot: slot})
				bound[slot] = true
				continue
			}
		}
		steps = append(steps, joinStep{pats: pats[i : i+1], slot: -1})
		for _, s := range cp.slot {
			if s >= 0 {
				bound[s] = true
			}
		}
	}
	return steps
}

// soleFreeSlot reports whether exactly one position of cp carries an
// unbound variable, and which slot it is. A variable repeated within the
// pattern counts once per position, excluding ?x p ?x shapes — their
// equality constraint is not expressible as a posting list.
func soleFreeSlot(cp compiledPattern, bound []bool) (int, bool) {
	slot, n := -1, 0
	for _, s := range cp.slot {
		if s >= 0 && !bound[s] {
			slot = s
			n++
		}
	}
	return slot, n == 1
}

// stepLeapfrog binds the group's variable to every ID in the
// intersection of the member patterns' posting lists, recursing into the
// rest of the chain per match. Emission is in ascending ID order —
// identical to what the cascaded scan-then-probe over the same sorted
// postings produced before.
func (r *bgpExec) stepLeapfrog(st *joinStep, depth int) error {
	var listArr [maxLeapfrogGroup][]rdf.ID
	lists := listArr[:0]
	//lint:ignore ctxloop bounded by the group's pattern count (≤ maxLeapfrogGroup)
	for i := range st.pats {
		cp := &st.pats[i]
		var want [3]rdf.ID
		for k := 0; k < 3; k++ {
			switch {
			case cp.slot[k] < 0:
				want[k] = cp.id[k]
			case cp.slot[k] == st.slot:
				want[k] = rdf.NoID
			default:
				want[k] = r.cur[cp.slot[k]]
			}
		}
		ids, ok := r.snap.Postings(want[0], want[1], want[2])
		if !ok || len(ids) == 0 {
			return nil
		}
		lists = append(lists, ids)
	}
	// Shortest list first: the candidate pointer lives on the list that
	// exhausts soonest, so the loop terminates after at most len(lists[0])
	// emissions plus the galloped skips.
	//lint:ignore ctxloop insertion sort over at most maxLeapfrogGroup lists
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}

	k := len(lists)
	var idx [maxLeapfrogGroup]int
	v := lists[0][0]
	matches, li := 1, 0
	for {
		r.visits++
		if r.visits%cancelCheckInterval == 0 {
			if err := r.ctx.Err(); err != nil {
				return fmt.Errorf("sparql: %w", err)
			}
		}
		li++
		if li == k {
			li = 0
		}
		lst := lists[li]
		j := seekGE(lst, idx[li], v)
		idx[li] = j
		if j == len(lst) {
			return nil
		}
		if lst[j] != v {
			v = lst[j]
			matches = 1
			continue
		}
		matches++
		if matches < k {
			continue
		}
		// All cursors agree: emit and advance past v.
		r.cur[st.slot] = v
		err := r.step(depth + 1)
		r.cur[st.slot] = rdf.NoID
		if err != nil {
			return err
		}
		idx[li]++
		if idx[li] == len(lst) {
			return nil
		}
		v = lst[idx[li]]
		matches = 1
	}
}

// seekGE returns the smallest index ≥ from with a[index] ≥ v, galloping
// then binary-searching — O(log d) in the distance d skipped, which is
// what makes the intersection's work proportional to the smallest list.
func seekGE(a []rdf.ID, from int, v rdf.ID) int {
	if from >= len(a) || a[from] >= v {
		return from
	}
	i, step := from, 1
	//lint:ignore ctxloop logarithmic gallop within one posting list; the enclosing intersection loop polls the context
	for i+step < len(a) && a[i+step] < v {
		i += step
		step <<= 1
	}
	lo, hi := i+1, i+step+1
	if hi > len(a) {
		hi = len(a)
	}
	//lint:ignore ctxloop logarithmic binary search within one posting list; the enclosing intersection loop polls the context
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
