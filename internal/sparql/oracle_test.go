package sparql

import (
	"context"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// This file holds the differential-testing oracle: the map-based
// evaluator that was the engine's execution path before the ID-space
// streaming executor (idexec.go) replaced it. It materializes a
// map[string]rdf.Term per row per join step and joins stage at a time —
// slow, but simple enough to be obviously right, which is what a
// reference implementation is for. It lives in a _test.go file so the
// product binaries link exactly one executor; TestOracleStaysOutOfProduct
// keeps it from drifting back.

// oracle evaluates queries against st with the reference evaluator.
type oracle struct {
	st *store.Store
	// order arranges each BGP's patterns before the nested-loop joins:
	// the engine's own planPatterns unless a test that asserts "ordering
	// never changes the answer" sets the order to compare.
	order func(*store.Snapshot, []TriplePattern) []TriplePattern
}

// newOracle is the oracle's entry point.
func newOracle(st *store.Store) *oracle { return &oracle{st: st, order: planPatterns} }

// planPatterns orders a BGP's triple patterns the way the engine does.
func planPatterns(snap *store.Snapshot, tps []TriplePattern) []TriplePattern {
	steps, _ := planBGP(snap, tps)
	return planOrder(tps, steps)
}

// queryOrder keeps a BGP's patterns as written.
func queryOrder(_ *store.Snapshot, tps []TriplePattern) []TriplePattern { return tps }

// Query parses and executes src.
func (e *oracle) Query(ctx context.Context, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, q)
}

// Execute runs a parsed query. Like the streaming path it binds one
// store snapshot for the whole execution, so both answer from the same
// frozen view.
func (e *oracle) Execute(ctx context.Context, q *Query) (*Result, error) {
	return e.executeOn(ctx, q, e.st.Snapshot())
}

func (e *oracle) executeOn(ctx context.Context, q *Query, snap *store.Snapshot) (*Result, error) {
	rows, err := e.evalGroup(ctx, q.Where, snap)
	if err != nil {
		return nil, err
	}
	if q.Ask {
		return &Result{Ask: true, AskTrue: len(rows) > 0}, nil
	}
	return e.finish(q, rows)
}

// finish applies grouping, projection, distinct, order and slice.
func (e *oracle) finish(q *Query, rows []Solution) (*Result, error) {
	var out []Solution
	var vars []string

	grouped := len(q.GroupBy) > 0 || q.HasAggregates()
	if grouped {
		groups := groupRows(rows, q.GroupBy)
		if len(q.Items) == 0 && !q.Star {
			return nil, fmt.Errorf("sparql: grouped query requires explicit projection")
		}
		for _, it := range q.Items {
			vars = append(vars, it.Var)
		}
		for _, g := range groups {
			// HAVING constraints.
			keep := true
			for _, h := range q.Having {
				b, ok := evalWithGroup(h, g.rows).AsBool()
				if !ok || !b {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			row := Solution{}
			for _, it := range q.Items {
				var v Value
				if it.Expr != nil {
					v = evalWithGroup(it.Expr, g.rows)
				} else {
					v = (&VarExpr{Name: it.Var}).Eval(first(g.rows))
				}
				if t, ok := valueToTerm(v); ok {
					row[it.Var] = t
				}
			}
			out = append(out, row)
		}
	} else {
		switch {
		case q.Star:
			seen := map[string]struct{}{}
			for _, r := range rows {
				for v := range r {
					if _, dup := seen[v]; !dup {
						seen[v] = struct{}{}
						vars = append(vars, v)
					}
				}
			}
			sort.Strings(vars)
			out = rows
		default:
			for _, it := range q.Items {
				vars = append(vars, it.Var)
			}
			out = make([]Solution, 0, len(rows))
			for _, r := range rows {
				row := Solution{}
				for _, it := range q.Items {
					if it.Expr != nil {
						if t, ok := valueToTerm(it.Expr.Eval(r)); ok {
							row[it.Var] = t
						}
					} else if t, ok := r[it.Var]; ok {
						row[it.Var] = t
					}
				}
				out = append(out, row)
			}
		}
	}

	if q.Distinct {
		out = dedupRows(out, vars)
	}
	if len(q.OrderBy) > 0 {
		sortRows(out, q.OrderBy)
	}
	lo, hi := window(len(out), q.Offset, q.Limit)
	out = out[lo:hi]
	return &Result{Vars: vars, Rows: out}, nil
}

type group struct {
	key  string
	rows []Solution
}

func groupRows(rows []Solution, by []string) []group {
	if len(by) == 0 {
		if len(rows) == 0 {
			// Aggregates over an empty pattern still yield one group so
			// COUNT(*) returns 0.
			return []group{{rows: nil}}
		}
		return []group{{rows: rows}}
	}
	idx := map[string]int{}
	var out []group
	for _, r := range rows {
		var b strings.Builder
		for _, v := range by {
			if t, ok := r[v]; ok {
				b.WriteString(t.String())
			}
			b.WriteByte('\x00')
		}
		key := b.String()
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, group{key: key})
		}
		out[i].rows = append(out[i].rows, r)
	}
	return out
}

// clone copies the solution.
func (s Solution) clone() Solution {
	out := make(Solution, len(s)+1)
	for k, v := range s {
		out[k] = v
	}
	return out
}

// evalGroup evaluates a group graph pattern to a list of solutions, all
// reads going through the execution's bound snapshot.
func (e *oracle) evalGroup(ctx context.Context, g *GroupPattern, snap *store.Snapshot) ([]Solution, error) {
	rows := []Solution{{}}
	var err error

	// Subselects join first (they are usually the most selective part of
	// eLinda's generated queries).
	for _, sub := range g.SubSelects {
		subRes, serr := e.executeOn(ctx, sub, snap)
		if serr != nil {
			return nil, serr
		}
		rows = e.joinSolutions(rows, subRes.Rows, false)
	}

	// Triple patterns: nested-loop joins with index-backed pattern lookup,
	// ordered by estimated selectivity.
	for _, tp := range e.order(snap, g.Triples) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sparql: %w", err)
		}
		rows, err = e.joinPattern(ctx, snap, rows, tp)
		if err != nil {
			return nil, err
		}
	}

	// VALUES blocks: joined with the inline data. UNDEF entries leave the
	// variable unbound, so each inline row may bind a different subset.
	for _, vb := range g.Values {
		var inline []Solution
		for _, row := range vb.Rows {
			sol := Solution{}
			for i, v := range vb.Vars {
				if i < len(row) && !row[i].IsZero() {
					sol[v] = row[i]
				}
			}
			inline = append(inline, sol)
		}
		rows = e.joinSolutions(rows, inline, false)
	}

	// UNION branches.
	for _, branches := range g.Unions {
		var unionRows []Solution
		for _, br := range branches {
			brRows, berr := e.evalGroup(ctx, br, snap)
			if berr != nil {
				return nil, berr
			}
			unionRows = append(unionRows, brRows...)
		}
		rows = e.joinSolutions(rows, unionRows, false)
	}

	// OPTIONAL: left joins.
	for _, opt := range g.Optionals {
		optRows, oerr := e.evalGroup(ctx, opt, snap)
		if oerr != nil {
			return nil, oerr
		}
		rows = e.joinSolutions(rows, optRows, true)
	}

	// FILTER constraints.
	for _, f := range g.Filters {
		kept := rows[:0]
		for ri, r := range rows {
			if ri%cancelCheckInterval == cancelCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sparql: %w", err)
				}
			}
			if b, ok := f.Eval(r).AsBool(); ok && b {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return rows, nil
}

// joinPattern extends each solution with bindings from matching triples.
func (e *oracle) joinPattern(ctx context.Context, snap *store.Snapshot, rows []Solution, tp TriplePattern) ([]Solution, error) {
	d := snap.Dict()
	var out []Solution
	visits := 0
	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sparql: %w", err)
		}
		sid, sOK, sBound := resolvePos(d, row, tp.S)
		pid, pOK, pBound := resolvePos(d, row, tp.P)
		oid, oOK, oBound := resolvePos(d, row, tp.O)
		if !sOK || !pOK || !oOK {
			// A bound term that is not in the dictionary matches nothing.
			continue
		}
		stop := false
		snap.Match(sid, pid, oid, func(tr rdf.EncodedTriple) bool {
			// A single pattern can scan a large share of the store, so the
			// per-row context check above is not enough for prompt
			// cancellation; re-check periodically inside the scan too.
			visits++
			if visits%cancelCheckInterval == 0 && ctx.Err() != nil {
				stop = true
				return false
			}
			sol := row.clone()
			if !sBound && tp.S.IsVar {
				sol[tp.S.Name] = d.Term(tr.S)
			}
			if !pBound && tp.P.IsVar {
				sol[tp.P.Name] = d.Term(tr.P)
			}
			if !oBound && tp.O.IsVar {
				sol[tp.O.Name] = d.Term(tr.O)
			}
			// Repeated variables within the pattern must agree.
			if !consistent(d, sol, tp, tr) {
				return true
			}
			out = append(out, sol)
			return true
		})
		if stop {
			return nil, fmt.Errorf("sparql: %w", ctx.Err())
		}
	}
	return out, nil
}

// resolvePos maps a pattern position to a concrete ID (or NoID wildcard).
// ok=false means the term cannot match anything in this store. bound
// reports whether the position was already fixed (term or bound variable).
func resolvePos(d *rdf.Dict, row Solution, tv TermOrVar) (id rdf.ID, ok, bound bool) {
	if tv.IsVar {
		if t, has := row[tv.Name]; has {
			id, found := d.Lookup(t)
			return id, found, true
		}
		return rdf.NoID, true, false
	}
	id, found := d.Lookup(tv.Term)
	return id, found, true
}

// consistent verifies repeated-variable constraints like ?x ?p ?x.
func consistent(d *rdf.Dict, sol Solution, tp TriplePattern, tr rdf.EncodedTriple) bool {
	check := func(tv TermOrVar, got rdf.ID) bool {
		if !tv.IsVar {
			return true
		}
		want, ok := sol[tv.Name]
		if !ok {
			return true
		}
		return want == d.Term(got)
	}
	return check(tp.S, tr.S) && check(tp.P, tr.P) && check(tp.O, tr.O)
}

// joinSolutions is the join by its definition: a nested loop emitting
// every compatible (left, right) pair merged, left-major, each left row's
// partners in right-row order. No key is sampled from any row, so the
// answer cannot depend on which rows come first. With optional it is
// OPTIONAL's left join: a left row with no compatible partner is kept.
func (e *oracle) joinSolutions(left, right []Solution, optional bool) []Solution {
	if !optional && len(left) == 1 && len(left[0]) == 0 {
		return right
	}
	var out []Solution
	for _, l := range left {
		matched := false
		for _, r := range right {
			if !compatible(l, r) {
				continue
			}
			m := l.clone()
			for k, v := range r {
				m[k] = v
			}
			out = append(out, m)
			matched = true
		}
		if optional && !matched {
			out = append(out, l)
		}
	}
	return out
}

func dedupRows(rows []Solution, vars []string) []Solution {
	seen := map[string]struct{}{}
	out := rows[:0]
	for _, r := range rows {
		var b strings.Builder
		for _, v := range vars {
			if t, ok := r[v]; ok {
				b.WriteString(t.String())
			}
			b.WriteByte('\x00')
		}
		key := b.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, r)
	}
	return out
}

func compatible(a, b Solution) bool {
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return false
		}
	}
	return true
}

// TestOracleStaysOutOfProduct fails if any non-test file of the query
// stack or of a command declares or references the oracle's entry point
// or its evaluator functions: the reference implementation may only be
// linked into test binaries.
func TestOracleStaysOutOfProduct(t *testing.T) {
	banned := map[string]bool{"newOracle": true, "evalGroup": true, "joinPattern": true, "joinSolutions": true}
	for _, pattern := range []string{"*.go", "../proxy/*.go", "../endpoint/*.go", "../../cmd/*/*.go"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := goparser.ParseFile(gotoken.NewFileSet(), path, nil, goparser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
					t.Errorf("%s mentions %s: the oracle must stay in _test.go files", path, id.Name)
				}
				return true
			})
		}
		if checked == 0 {
			t.Fatalf("pattern %s matches no non-test file: the source layout moved, fix the patterns above", pattern)
		}
	}
}
