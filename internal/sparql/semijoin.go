package sparql

// Semi-join steps. A pattern with exactly one variable position whose
// variable an earlier step of the chain already binds — ?s a <Person>
// after ?s <birthPlace> ?o, or the subclass chart's type checks — only
// filters rows: per row it asks whether one fully bound triple exists.
// Probing the index for that row by row costs a posting search on the
// base plus searches of the tombstones, the sorted delta and the tail.
// A semi-join step instead reads the pattern's posting list once, with
// the variable position wildcarded, into a bitmap over the IDs, and each
// row costs one bit test.
//
// The set is per query and per step. It is built lazily at the step's
// first probe, exactly once, from the snapshot the query bound. Whether a
// candidate step becomes a semi-join is decided at compile time
// (compileSteps) from the planner's estimates, so EXPLAIN reports exactly
// what will run.

import (
	"context"
	"fmt"
	"sync"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// semiJoinBuildCost is the number of posting entries a set build may
// read per expected probe: a bitmap entry costs a store write, an index
// probe several dependent searches. A step expected to probe fewer than
// len(postings)/semiJoinBuildCost rows keeps probing the index.
const semiJoinBuildCost = 32

// semiSet is one semi-join step's membership set: the IDs at the
// pattern's variable position, as a bitmap over [0, max ID].
type semiSet struct {
	slot int       // the checked variable's column
	want [3]rdf.ID // the pattern with its variable position wildcarded

	once sync.Once
	bits []uint64
	err  error
}

// semiJoinSlot reports whether cp is a semi-join candidate under the
// bound-slot set: exactly one variable position, whose variable is
// already bound. It returns that variable's slot.
func semiJoinSlot(cp compiledPattern, bound []bool) (int, bool) {
	slot, n := -1, 0
	for _, s := range cp.slot {
		if s >= 0 {
			slot = s
			n++
		}
	}
	return slot, n == 1 && bound[slot] && !cp.dead
}

// semiJoinPays decides a candidate from the planner's estimates: the
// rows expected to reach the step (probes) against the posting entries a
// set build reads (card).
func semiJoinPays(probes, card float64) bool {
	return probes*semiJoinBuildCost >= card
}

func newSemiSet(cp compiledPattern, slot int) *semiSet {
	s := &semiSet{slot: slot}
	for k := 0; k < 3; k++ {
		if cp.slot[k] < 0 {
			s.want[k] = cp.id[k]
		}
	}
	return s
}

// contains reports whether id completes the pattern to a triple of snap,
// building the set on the first call. Every caller must pass the
// snapshot the query bound.
func (s *semiSet) contains(ctx context.Context, snap *store.Snapshot, id rdf.ID) (bool, error) {
	s.once.Do(func() { s.bits, s.err = buildSemiBits(ctx, snap, s.want) })
	if s.err != nil {
		return false, s.err
	}
	// IDs past the bitmap — query-local overflow IDs among them — are
	// not in the posting list.
	w := int(id >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(id&63)) != 0, nil
}

// buildSemiBits reads the single-wildcard posting list of want — base
// minus tombstones plus the overlay — into a bitmap.
func buildSemiBits(ctx context.Context, snap *store.Snapshot, want [3]rdf.ID) ([]uint64, error) {
	ids, _ := snap.Postings(want[0], want[1], want[2])
	if len(ids) == 0 {
		return nil, nil
	}
	bits := make([]uint64, ids[len(ids)-1]>>6+1)
	for i, id := range ids {
		if i%cancelCheckInterval == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sparql: %w", err)
			}
		}
		bits[id>>6] |= 1 << (id & 63)
	}
	return bits, nil
}
