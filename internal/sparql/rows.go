package sparql

// This file defines a row-callback interface for in-process consumers of
// a result; ReplayResult feeds a materialized *Result to a RowSink. (The
// HTTP server encodes a *Result directly.)

import "context"

// RowSink receives a query result incrementally. Head is called exactly
// once before any Row: with the projected variable names for a SELECT
// (ask=false), or with vars=nil and the boolean answer for an ASK (no Row
// calls follow). Rows arrive in final result order — identical to
// Result.Rows from Execute on the same query. Any error returned from a
// sink method aborts delivery and is returned unchanged.
type RowSink interface {
	Head(vars []string, ask, askTrue bool) error
	Row(sol Solution) error
}

// RowExecutor is the row-callback counterpart of the endpoint's Executor
// interface: implementations deliver results through a RowSink instead of
// returning a *Result. The serving proxy implements it.
type RowExecutor interface {
	QueryRows(ctx context.Context, src string, sink RowSink) error
}

// ReplayResult streams a materialized result through sink — the bridge
// for callers that hold an executed, cached or remotely fetched *Result
// but serve a streaming consumer.
func ReplayResult(res *Result, sink RowSink) error {
	if res.Ask {
		return sink.Head(nil, true, res.AskTrue)
	}
	if err := sink.Head(res.Vars, false, false); err != nil {
		return err
	}
	for _, sol := range res.Rows {
		if err := sink.Row(sol); err != nil {
			return err
		}
	}
	return nil
}
