package sparql

import (
	"context"
	"fmt"
)

// Top-k solution selection for ORDER BY + LIMIT queries. The full-sort
// path costs O(n log n) comparisons — each one evaluating the ORDER BY
// expressions — even when the query only wants the first ten rows. When
// LIMIT is set (and OFFSET is small), a bounded max-heap of size
// offset+limit finds exactly the same prefix in O(n log k): every row is
// compared against the current worst kept row and usually discarded with
// a single comparison.
//
// Tie-breaking matters for equivalence: sortRows is a stable sort, so
// rows comparing equal keep their pre-sort order. The heap therefore
// breaks ties on the original row index, which makes TopKSolutions
// return byte-identical prefixes to sortRows-then-slice.

// topKMaxOffset bounds the OFFSET for which the heap path is used: a
// huge offset forces a huge heap, at which point the full sort wins.
const topKMaxOffset = 1 << 12

// topKBound reports whether the heap path applies to the query given the
// result size, and the number of leading rows to select (offset+limit).
func topKBound(q *Query, n int) (int, bool) {
	if len(q.OrderBy) == 0 || q.Limit < 0 || q.Offset < 0 || q.Offset > topKMaxOffset {
		return 0, false
	}
	k := q.Offset + q.Limit
	if k < 0 || k >= n { // overflow or no fewer rows than a full sort
		return 0, false
	}
	return k, true
}

// TopKSolutions returns the first k rows of the stable ORDER BY sort of
// rows — the exact prefix sortRows followed by rows[:k] would
// produce — without sorting the full slice. The input is not modified.
// The scan over rows polls ctx so a hung-up client stops paying for its
// ordering pass.
func TopKSolutions(ctx context.Context, rows []Solution, keys []OrderKey, k int) ([]Solution, error) {
	if k <= 0 {
		return nil, nil
	}
	if k >= len(rows) {
		out := append([]Solution(nil), rows...)
		sortRows(out, keys)
		return out, nil
	}
	// worse reports whether row i sorts strictly after row j, with the
	// original index as the stable-sort tiebreak.
	worse := func(i, j int) bool {
		if c := cmpSolutionsOrder(rows[i], rows[j], keys); c != 0 {
			return c > 0
		}
		return i > j
	}
	// Max-heap of the k best indices: the root is the worst kept row.
	h := make([]int, 0, k)
	siftUp := func(c int) {
		for c > 0 {
			p := (c - 1) / 2
			if !worse(h[c], h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
	}
	siftDown := func() {
		p := 0
		//lint:ignore ctxloop bounded by heap depth, log2(k) iterations
		for {
			c := 2*p + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && worse(h[c+1], h[c]) {
				c++
			}
			if !worse(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	for i := range rows {
		if i%cancelCheckInterval == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sparql: %w", err)
			}
		}
		if len(h) < k {
			h = append(h, i)
			siftUp(len(h) - 1)
			continue
		}
		if worse(h[0], i) { // i beats the current worst: replace the root
			h[0] = i
			siftDown()
		}
	}
	// Pop from worst to best into the output, back to front.
	out := make([]Solution, len(h))
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = rows[h[0]]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown()
	}
	return out, nil
}

// OrderAndSlice applies the query's ORDER BY, OFFSET and LIMIT solution
// modifiers with the engine's exact semantics, routing through the
// bounded-heap top-k selection when LIMIT makes it cheaper. Exported for
// result producers outside the engine (the decomposer's fast path, whose
// index-backed results are small enough that cancellation is handled at
// the serving tier instead).
func OrderAndSlice(rows []Solution, q *Query) []Solution {
	out, _ := applyOrderSlice(context.Background(), rows, q)
	return out
}

// applyOrderSlice applies ORDER BY, OFFSET and LIMIT, routing through the
// bounded heap when the query shape allows it.
func applyOrderSlice(ctx context.Context, rows []Solution, q *Query) ([]Solution, error) {
	if len(q.OrderBy) > 0 {
		if k, ok := topKBound(q, len(rows)); ok {
			var err error
			rows, err = TopKSolutions(ctx, rows, q.OrderBy, k)
			if err != nil {
				return nil, err
			}
		} else {
			sortRows(rows, q.OrderBy)
		}
	}
	return SliceSolutions(rows, q.Offset, q.Limit), nil
}
