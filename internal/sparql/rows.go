package sparql

// This file adds the row-callback execution mode the serving tier's
// streaming encoders consume: instead of materializing a *Result (one
// Solution map per row, all rows resident at once) and then marshaling
// it, the executor announces the result header and hands each solution to
// a RowSink as soon as it is decoded. The ID-row pipeline already
// materializes compact []rdf.ID rows internally; streaming moves the
// expensive term-level decode ("decode at the edge") from a buffered
// slice build into the caller's write loop, so the server's memory per
// request stays bounded by one row, not one result set.

import (
	"context"
	"fmt"

	"elinda/internal/rdf"
)

// RowSink receives a query result incrementally. Head is called exactly
// once before any Row: with the projected variable names for a SELECT
// (ask=false), or with vars=nil and the boolean answer for an ASK (no Row
// calls follow). Rows arrive in final result order — identical to
// Result.Rows from Execute on the same query. Any error returned from a
// sink method aborts execution and is returned unchanged.
type RowSink interface {
	Head(vars []string, ask, askTrue bool) error
	Row(sol Solution) error
}

// RowExecutor is the streaming counterpart of the endpoint's Executor
// interface: implementations deliver results through a RowSink instead of
// a materialized *Result. *Engine and the serving proxy implement it.
type RowExecutor interface {
	QueryRows(ctx context.Context, src string, sink RowSink) error
}

// QueryRows parses and executes src, streaming the result into sink.
func (e *Engine) QueryRows(ctx context.Context, src string, sink RowSink) error {
	q, err := Parse(src)
	if err != nil {
		return err
	}
	return e.ExecuteRows(ctx, q, sink)
}

// ExecuteRows runs a parsed query, streaming the result into sink. The
// row set and order are identical to Execute's: both share the ID-row
// pipeline, and paths that need every row before the first can be emitted
// (ORDER BY) materialize internally and replay.
func (e *Engine) ExecuteRows(ctx context.Context, q *Query, sink RowSink) error {
	if len(q.OrderBy) > 0 {
		res, err := e.Execute(ctx, q)
		if err != nil {
			return err
		}
		return ReplayResult(res, sink)
	}
	env := newExecEnv(e.st.Snapshot())
	rows, slots, err := e.evalGroupIDs(ctx, q.Where, env)
	if err != nil {
		return err
	}
	// The eval loops only poll the context intermittently; a deadline that
	// fired on a small result must still surface before the header goes
	// out (mirrors the buffered path's post-query check).
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sparql: %w", err)
	}
	if q.Ask {
		return sink.Head(nil, true, rows.n > 0)
	}
	proj, vars, ok := e.projectStream(q, rows, slots, env)
	if !ok {
		// HAVING or complex aggregates: the general grouped path builds
		// term-level solutions anyway; replay them.
		out, gvars, err := e.finishGroupedGeneral(q, rows, slots, env)
		if err != nil {
			return err
		}
		out = SliceSolutions(out, q.Offset, q.Limit)
		return replayRows(gvars, out, sink)
	}
	if err := sink.Head(vars, false, false); err != nil {
		return err
	}
	// OFFSET/LIMIT applied at the decode edge: skipped and truncated rows
	// are never decoded to terms at all.
	start := min(q.Offset, proj.n)
	end := proj.n
	if q.Limit >= 0 && start+q.Limit < end {
		end = start + q.Limit
	}
	for i := start; i < end; i++ {
		if (i-start)%cancelCheckInterval == cancelCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sparql: %w", err)
			}
		}
		row := proj.row(i)
		sol := make(Solution, len(vars))
		for j, name := range vars {
			if id := row[j]; id != rdf.NoID {
				sol[name] = env.decode(id)
			}
		}
		if err := sink.Row(sol); err != nil {
			return err
		}
	}
	return nil
}

// ReplayResult streams a materialized result through sink — the bridge
// for callers that hold a cached or remotely fetched *Result but serve a
// streaming consumer.
func ReplayResult(res *Result, sink RowSink) error {
	if res.Ask {
		return sink.Head(nil, true, res.AskTrue)
	}
	return replayRows(res.Vars, res.Rows, sink)
}

func replayRows(vars []string, rows []Solution, sink RowSink) error {
	if err := sink.Head(vars, false, false); err != nil {
		return err
	}
	for _, sol := range rows {
		if err := sink.Row(sol); err != nil {
			return err
		}
	}
	return nil
}
