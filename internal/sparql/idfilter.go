package sparql

// FILTER evaluation over ID rows. The general bridge decodes the
// variables an expression references into a term-level Solution — but
// most filters don't need that per row:
//
//   - sameTerm(?x, <const>) is exact term identity, and within one
//     execEnv term identity IS ID identity, so the filter is a single
//     integer compare per row with no decode at all.
//   - any filter referencing exactly one variable is a pure function of
//     that variable's term, so its verdict can be memoized per distinct
//     ID — each distinct value decodes and evaluates once, and every
//     further row with the same ID is a map probe.
//   - multi-variable filters still bridge, but through a reusable
//     slot-keyed scratch that only touches entries whose binding actually
//     changed, instead of clearing and rebuilding the map every row.
//
// Note sameTerm is the only shape where raw ID equality is the full
// semantics: the `=` operator value-compares (numerically, or on the
// STR() view), so "01"^^xsd:integer = "1"^^xsd:integer holds across
// different IDs. Single-variable `=` filters against constants therefore
// take the memo path, which preserves those coercions exactly.

import (
	"context"
	"fmt"

	"elinda/internal/rdf"
)

// scratchSol is a reusable term-level Solution keyed by slot: fill
// overwrites bindings in place and deletes only on a bound→unbound
// transition, eliminating the per-row map churn of clear-and-rebuild.
type scratchSol struct {
	sol  Solution
	refs []slotRef
	set  []bool // set[k]: refs[k].name is currently present in sol
}

func newScratchSol(refs []slotRef) *scratchSol {
	return &scratchSol{sol: make(Solution, len(refs)), refs: refs, set: make([]bool, len(refs))}
}

// fill syncs the scratch solution to row and returns it. The returned
// map is reused by the next call — callers must not retain it.
func (s *scratchSol) fill(row []rdf.ID, env *execEnv) Solution {
	for k, ref := range s.refs {
		if id := row[ref.slot]; id != rdf.NoID {
			s.sol[ref.name] = env.decode(id)
			s.set[k] = true
		} else if s.set[k] {
			delete(s.sol, ref.name)
			s.set[k] = false
		}
	}
	return s.sol
}

// sameTermConstFilter matches sameTerm(?x, const) / sameTerm(const, ?x)
// where ?x has a slot, returning the slot and the constant's ID under
// env. ok is false for every other shape (including a slotless variable,
// which the constant-filter path handles).
func sameTermConstFilter(f Expr, slots *slotTable, env *execEnv) (slot int, id rdf.ID, ok bool) {
	fe, isFunc := f.(*FuncExpr)
	if !isFunc || fe.Name != "SAMETERM" || len(fe.Args) != 2 {
		return 0, 0, false
	}
	varArg, constArg := fe.Args[0], fe.Args[1]
	if _, isVar := varArg.(*VarExpr); !isVar {
		varArg, constArg = constArg, varArg
	}
	v, isVar := varArg.(*VarExpr)
	c, isConst := constArg.(*ConstExpr)
	if !isVar || !isConst {
		return 0, 0, false
	}
	s, hasSlot := slots.lookup(v.Name)
	if !hasSlot {
		return 0, 0, false
	}
	return s, env.encode(c.Term), true
}

// applyFilterIDs filters rows by f, picking the cheapest exact strategy
// for the expression's shape (see the file comment).
func (e *Engine) applyFilterIDs(ctx context.Context, f Expr, rows *idRows, slots *slotTable, env *execEnv) (*idRows, error) {
	kept := newIDRows(rows.w)
	check := func(i int) error {
		if i%cancelCheckInterval == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sparql: %w", err)
			}
		}
		return nil
	}

	if slot, want, ok := sameTermConstFilter(f, slots, env); ok {
		// Term identity == ID identity under one execEnv; an unbound
		// slot is NoID, which no interned term's ID can equal — exactly
		// the oracle's "sameTerm on unbound is not true" behavior.
		for i := 0; i < rows.n; i++ {
			if err := check(i); err != nil {
				return nil, err
			}
			if row := rows.row(i); row[slot] == want {
				kept.push(row)
			}
		}
		return kept, nil
	}

	refs := filterRefs(f, slots)
	switch len(refs) {
	case 0:
		// No bindable variables: the verdict is row-independent.
		if b, ok := f.Eval(Solution{}).AsBool(); ok && b {
			return rows, nil
		}
		return kept, nil
	case 1:
		ref := refs[0]
		verdict := make(map[rdf.ID]bool)
		scratch := make(Solution, 1)
		for i := 0; i < rows.n; i++ {
			if err := check(i); err != nil {
				return nil, err
			}
			row := rows.row(i)
			id := row[ref.slot]
			pass, seen := verdict[id]
			if !seen {
				if id != rdf.NoID {
					scratch[ref.name] = env.decode(id)
				} else {
					delete(scratch, ref.name)
				}
				b, ok := f.Eval(scratch).AsBool()
				pass = ok && b
				verdict[id] = pass
			}
			if pass {
				kept.push(row)
			}
		}
		return kept, nil
	}

	sc := newScratchSol(refs)
	for i := 0; i < rows.n; i++ {
		if err := check(i); err != nil {
			return nil, err
		}
		row := rows.row(i)
		if b, ok := f.Eval(sc.fill(row, env)).AsBool(); ok && b {
			kept.push(row)
		}
	}
	return kept, nil
}
