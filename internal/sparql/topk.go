package sparql

import (
	"context"
	"fmt"
	"slices"
)

// Top-k selection for ORDER BY + LIMIT: a bounded max-heap of size
// offset+limit finds the prefix of the full sort in O(n log k), every row
// compared against the worst kept one. The full sort is stable, so the
// heap breaks ties on the row index: its prefix is the sort's exactly.

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

// topKIndices returns, in order, the k smallest of the row indices 0..n-1
// under cmp with the index as the stable-sort tiebreak, for k < n.
func topKIndices(ctx context.Context, n, k int, cmp func(i, j int) int) ([]int, error) {
	if k <= 0 {
		return nil, nil
	}
	// worse reports whether row i sorts strictly after row j.
	worse := func(i, j int) bool {
		if c := cmp(i, j); c != 0 {
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
	for i := 0; i < n; i++ {
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
	out := make([]int, len(h))
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown()
	}
	return out, nil
}

// OrderAndSlice applies the query's ORDER BY, OFFSET and LIMIT solution
// modifiers to solution maps with the engine's exact semantics: the
// stable sort, or the top-k heap when LIMIT makes it cheaper. Exported
// for result producers outside the engine (the decomposer's fast path,
// whose index-backed results are small enough that cancellation is
// handled at the serving tier instead).
func OrderAndSlice(rows []Solution, q *Query) []Solution {
	if k, ok := topKBound(q, len(rows)); ok {
		best, _ := topKIndices(context.Background(), len(rows), k, func(i, j int) int {
			return cmpSolutionsOrder(rows[i], rows[j], q.OrderBy)
		})
		top := make([]Solution, len(best))
		for n, i := range best {
			top[n] = rows[i]
		}
		rows = top
	} else if len(q.OrderBy) > 0 {
		sortRows(rows, q.OrderBy)
	}
	lo, hi := window(len(rows), q.Offset, q.Limit)
	return rows[lo:hi]
}

// orderSliceIDs applies ORDER BY, OFFSET and LIMIT to projected ID rows
// (columns named by vars): each key is evaluated once per row, and the
// stable sort or the top-k heap orders row indices.
func orderSliceIDs(ctx context.Context, proj *idRows, vars []string, q *Query, env *execEnv) (*idRows, error) {
	lo, hi := window(proj.n, q.Offset, q.Limit)
	if len(q.OrderBy) == 0 {
		return &idRows{w: proj.w, n: hi - lo, data: proj.data[lo*proj.w : hi*proj.w]}, nil
	}
	nk := len(q.OrderBy)
	vals, err := orderKeyValues(ctx, proj, vars, q.OrderBy, env)
	if err != nil {
		return nil, err
	}
	cmp := func(i, j int) int {
		//lint:ignore ctxloop bounded by the query's ORDER BY key count
		for k, key := range q.OrderBy {
			if c := cmpOrderKey(vals[i*nk+k], vals[j*nk+k], key.Desc); c != 0 {
				return c
			}
		}
		return 0
	}
	var order []int
	if k, ok := topKBound(q, proj.n); ok {
		if order, err = topKIndices(ctx, proj.n, k, cmp); err != nil { // k == hi
			return nil, err
		}
	} else {
		order = make([]int, proj.n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, cmp)
	}
	out := newIDRows(proj.w)
	out.reserve(hi - lo)
	//lint:ignore ctxloop a copy of the rows kept, after the key pass that polls ctx
	for _, i := range order[lo:hi] {
		out.push(proj.row(i))
	}
	return out, nil
}

// orderKeyValues evaluates every ORDER BY key on every row; key k of row
// i is at i*len(keys)+k. A key sees the row's projected variables, the
// first column of a shared name (lastBoundWins made them equal).
func orderKeyValues(ctx context.Context, proj *idRows, vars []string, keys []OrderKey, env *execEnv) ([]Value, error) {
	cols := &slotTable{index: make(map[string]int, len(vars))}
	for j := len(vars) - 1; j >= 0; j-- {
		cols.index[vars[j]] = j
	}
	scratch := make([]*scratchSol, len(keys))
	//lint:ignore ctxloop bounded by the query's ORDER BY key count
	for k, key := range keys {
		scratch[k] = newScratchSol(filterRefs(key.Expr, cols))
	}
	vals := make([]Value, 0, proj.n*len(keys))
	for i := 0; i < proj.n; i++ {
		if i%cancelCheckInterval == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sparql: %w", err)
			}
		}
		for k, key := range keys {
			vals = append(vals, key.Expr.Eval(scratch[k].fill(proj.row(i), env)))
		}
	}
	return vals, nil
}

// window returns the bounds of the rows OFFSET and LIMIT keep of n
// (limit < 0 means unlimited).
func window(n, offset, limit int) (lo, hi int) {
	lo, hi = min(max(offset, 0), n), n
	if limit >= 0 && limit < hi-lo {
		hi = lo + limit
	}
	return lo, hi
}
