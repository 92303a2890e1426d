package sparql

// EXPLAIN: the planner's view of a query, surfaced without executing it.
// Engine.Explain parses the query, runs exactly the join ordering and
// leapfrog step compilation the executor would, and reports the chosen
// order with the estimates that drove it. The endpoint exposes it via an
// explain=1 request parameter (see internal/endpoint), so an operator can
// ask "why is this query slow" against the live store — the report is
// computed from the same snapshot statistics the planner will use on the
// very next execution.

import (
	"context"
	"fmt"
)

// PlanStep is one executor step of an explained BGP: a single-pattern
// scan/probe, a semi-join membership test on Var, or a leapfrog
// intersection group binding Var.
type PlanStep struct {
	// Kind is "scan" for a single-pattern step, "semijoin" for a
	// single-pattern step that tests an already bound variable against
	// a set built once from the pattern's postings, or "leapfrog" for a
	// multiway intersection group.
	Kind string `json:"kind"`
	// Patterns renders the step's triple patterns in execution order.
	Patterns []string `json:"patterns"`
	// Var is the variable a leapfrog group binds or a semi-join tests
	// (empty for scans).
	Var string `json:"var,omitempty"`
	// Card is the exact standalone cardinality of the step's first
	// pattern (CardMatch on the columnar indexes).
	Card float64 `json:"card"`
	// EstRows is the planner's estimated cumulative rows after this
	// step. Zero when the planner did not order (single pattern, or
	// out-of-model queries).
	EstRows float64 `json:"est_rows"`
}

// PlanStatsSummary summarizes the snapshot statistics the plan was
// costed on.
type PlanStatsSummary struct {
	Triples int `json:"triples"`
	Preds   int `json:"predicates"`
}

// PlanReport is the full EXPLAIN document for one query.
type PlanReport struct {
	// Mode is "greedy" when the planner ordered Steps, or "none" when
	// nothing was ordered (at most one pattern, or a query outside
	// the planner's model).
	Mode string `json:"mode"`
	// Leapfrog reports whether multiway intersection was eligible for
	// the top-level BGP: no subselect joins before it.
	Leapfrog bool `json:"leapfrog"`
	// Patterns is the BGP in query order, before planning.
	Patterns []string `json:"patterns"`
	// Steps is the executor chain in chosen order.
	Steps []PlanStep `json:"steps"`
	// Stats summarizes the statistics behind the estimates.
	Stats PlanStatsSummary `json:"stats"`
}

// String renders the report as the human-readable text the CLI prints.
func (r *PlanReport) String() string {
	s := fmt.Sprintf("plan mode=%s leapfrog=%v (stats: %d triples, %d predicates)\n",
		r.Mode, r.Leapfrog, r.Stats.Triples, r.Stats.Preds)
	for i, st := range r.Steps {
		s += fmt.Sprintf("  %d. %s", i+1, st.Kind)
		if st.Var != "" {
			s += fmt.Sprintf(" ?%s", st.Var)
		}
		s += fmt.Sprintf(" card=%.0f", st.Card)
		if st.EstRows > 0 {
			s += fmt.Sprintf(" est_rows=%.1f", st.EstRows)
		}
		s += "\n"
		for _, p := range st.Patterns {
			s += "       " + p + "\n"
		}
	}
	return s
}

// renderPattern formats a triple pattern for the report.
func renderPattern(tp TriplePattern) string {
	return fmt.Sprintf("%s %s %s", tp.S, tp.P, tp.O)
}

// Explain plans src without executing it and reports the chosen join
// order, per-step estimates and operator kinds for the query's top-level
// BGP. Nested groups (OPTIONAL, UNION, subselects) plan independently at
// execution time and are not expanded here.
func (e *Engine) Explain(ctx context.Context, src string) (*PlanReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sparql: %w", err)
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	snap := e.st.Snapshot()
	tps := q.Where.Triples

	// The same ordering the executor will run, with the estimates kept.
	planned, mode := planBGP(snap, tps)
	rep := &PlanReport{Mode: mode}
	if ps := snap.PlanStats(); ps != nil {
		rep.Stats = PlanStatsSummary{Triples: ps.Triples, Preds: len(ps.Preds)}
	}
	//lint:ignore ctxloop bounded by the query's pattern count, not by data size
	for _, tp := range tps {
		rep.Patterns = append(rep.Patterns, renderPattern(tp))
	}

	ordered := planOrder(tps, planned)

	// The same step compilation runBGP performs for the top-level BGP,
	// decided by the same leapfrog predicate.
	slots := groupSlots(q.Where)
	env := newExecEnv(snap)
	pats := make([]compiledPattern, len(ordered))
	//lint:ignore ctxloop bounded by the query's pattern count, not by data size
	for i, tp := range ordered {
		pats[i] = compilePattern(tp, slots, env.dict)
	}
	rep.Leapfrog = leapfrogEligible(q.Where)
	steps := compileSteps(pats, planned, slots.width(), rep.Leapfrog)

	// Align each executor step with the planner's estimates: step j
	// consumes len(step.pats) consecutive planned patterns.
	next := 0
	//lint:ignore ctxloop bounded by the query's pattern count, not by data size
	for _, st := range steps {
		ps := PlanStep{Kind: "scan"}
		switch {
		case st.slot >= 0:
			ps.Kind = "leapfrog"
			ps.Var = slots.names[st.slot]
		case st.semi != nil:
			ps.Kind = "semijoin"
			ps.Var = slots.names[st.semi.slot]
		}
		for range st.pats {
			ps.Patterns = append(ps.Patterns, renderPattern(ordered[next]))
			if planned != nil {
				if ps.Card == 0 || planned[next].card < ps.Card {
					ps.Card = planned[next].card
				}
				ps.EstRows = planned[next].estRows
			} else {
				ps.Card = float64(estimate(snap, ordered[next]))
			}
			next++
		}
		rep.Steps = append(rep.Steps, ps)
	}
	return rep, nil
}
