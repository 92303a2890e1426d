package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"time"
)

// layers.go produces the per-layer metrics: it replays a workload's
// script in-process against the same stack the server runs (seams.go),
// with a span around every call into a layer, and probes the layers no
// request path reaches in isolation (boot, single-triple writes, the
// WAL, the incremental tier). Everything here runs on one goroutine.

// execute performs one scripted request against the in-process system.
func (s *system) execute(r request) error {
	if r.body != "" || strings.HasPrefix(r.target, "/sparql") {
		req := httptest.NewRequest(http.MethodPost, r.target, strings.NewReader(r.body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		s.serveSPARQL(rec, req)
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s: status %d: %.200s", r.kind, rec.Code, rec.Body.String())
		}
		if r.want != "" && !strings.Contains(rec.Body.String(), r.want) {
			return fmt.Errorf("%s: body lacks %s", r.kind, r.want)
		}
		return nil
	}
	u, err := url.Parse(r.target)
	if err != nil {
		return err
	}
	q := u.Query()
	switch u.Path {
	case "/api/classes":
		s.apiClasses(q.Get("q"))
	case "/api/pane":
		s.apiPane(q.Get("class"))
	case "/api/chart":
		return s.apiChart(q.Get("class"), q.Get("kind"))
	case "/api/connections":
		return s.apiConnections(q.Get("class"), q.Get("property"))
	case "/api/table":
		s.apiTable(q.Get("class"), q["props"])
	default:
		return fmt.Errorf("no in-process route for %s", u.Path)
	}
	return nil
}

// replay runs ops k = from, from+1, ... of a script for at least budget
// and at least minOps ops, and returns each op's duration. With the
// recorder enabled every op and step is a span (the layers' spans nest
// inside); with it disabled the same code runs untraced.
func replay(s *system, sc script, from int, budget time.Duration, minOps int) (opMS []float64, next int, err error) {
	start := time.Now()
	k := from
	for ; k-from < minOps || time.Since(start) < budget; k++ {
		reqs := sc(k)
		s.rec.opID = k
		t0 := time.Now()
		endOp := s.rec.span("op")
		for _, r := range reqs {
			endStep := s.rec.span("step." + r.kind)
			err := s.execute(r)
			endStep()
			if err != nil {
				endOp()
				return nil, k, fmt.Errorf("in-process op %d: %w", k, err)
			}
		}
		endOp()
		opMS = append(opMS, ms(time.Since(t0)))
	}
	return opMS, k, nil
}

// timed runs fn and returns its duration in ms.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return ms(time.Since(t0)), err
}

// layerRun is the outcome of the in-process half of a -trace run.
type layerRun struct {
	values        map[string]float64 // per-layer metric name → value
	untracedOpMS  float64            // median in-process op, recorder off
	tracedOpMS    float64            // median in-process op, recorder on
	overheadRatio float64            // traced/untraced mean op time - 1
	attributed    float64            // layer self time / op time
	ops           int
	tracePath     string
}

// runLayers measures the layers for one workload. dir is a scratch
// directory; budget bounds each of the two replay passes.
func runLayers(env *environment, w workload, d *dataset, dir string, budget time.Duration) (*layerRun, error) {
	out := &layerRun{values: map[string]float64{}}
	v := out.values
	ctx := context.Background()
	var err error

	// Boot path. The cold path (rdf + store ingest) is what explore_api's
	// setup_s pays; every other workload boots from the snapshot.
	if w.name == "explore_api" {
		var n int
		if v["rdf.parse_ms"], err = timed(func() error { n, err = parseOnly(d.nt); return err }); err != nil {
			return nil, err
		}
		v["rdf.triples_per_s"] = float64(n) / (v["rdf.parse_ms"] / 1000)
		if v["store.load_stream_ms"], err = timed(func() error { _, err := loadStream(d.nt); return err }); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	var sys *system
	if v["store.open_snapshot_ms"], err = timed(func() error { sys, err = openSystem(d.snap, rec); return err }); err != nil {
		return nil, err
	}
	defer sys.close()
	v["store.snapshot_bytes_per_triple"] = float64(d.snapshotBytes()) / float64(sys.triples())

	if w.name == "mixed_rw" {
		// The in-process stack gets its own copy of the seeded WAL so the
		// server's directory stays as generated.
		walDir := filepath.Join(dir, "wal-inproc")
		if err := seedWAL(walDir, d.walSeed); err != nil {
			return nil, err
		}
		if _, err := sys.replayWAL(walDir); err != nil {
			return nil, err
		}
		if err := probeWrites(sys, d, dir, v); err != nil {
			return nil, err
		}
		sys.attachWAL()
	}
	sys.wire(w.heavy)
	v["decomposer.warm_ms"], _ = timed(func() error { sys.warm(); return nil })

	if w.heavy > 0 { // the two workloads that read the hot set
		if err := probeDecomposer(sys, v); err != nil {
			return nil, err
		}
	}
	if w.name == "explore_api" {
		if err := probeIncremental(ctx, sys, v); err != nil {
			return nil, err
		}
	}

	// Replay: a short warm pass, an untraced pass, a traced pass.
	sc := w.scripts(d, clients)[0]
	_, next, err := replay(sys, sc, 0, 0, 2)
	if err != nil {
		return nil, err
	}
	untraced, next, err := replay(sys, sc, next, budget, 3)
	if err != nil {
		return nil, err
	}
	rec.enabled = true
	traced, _, err := replay(sys, sc, next, budget, 3)
	rec.enabled = false
	if err != nil {
		return nil, err
	}
	out.ops = len(traced)
	out.overheadRatio = mean(traced)/mean(untraced) - 1
	out.untracedOpMS, out.tracedOpMS = median(untraced), median(traced)

	// Self time per layer, per op. "op" and "step.*" are the harness's own
	// spans; what they do not hand to a layer is unattributed.
	self := rec.selfTimes()
	var opTotal, harness int64
	for _, sp := range rec.spans {
		if sp.Name == "op" {
			opTotal += sp.EndNS - sp.StartNS
		}
	}
	for name, ns := range self {
		if name == "op" || strings.HasPrefix(name, "step.") {
			harness += ns
		}
	}
	out.attributed = 1 - float64(harness)/float64(opTotal)
	perOp := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return float64(ns) / 1e6 / float64(out.ops)
	}
	for _, name := range []string{"open_pane", "pane_stats", "subclass_chart", "property_chart", "connections_chart", "data_table"} {
		v["core."+name+"_ms"] = perOp("core." + name)
	}
	v["sparql.parse_ms"] = perOp("sparql.parse", "sparql.parse_update")
	v["sparql.exec_ms"] = perOp("sparql.exec", "sparql.update_ops")
	v["sparql.rows_out"] = float64(rec.counts["sparql.rows_out"]) / float64(out.ops)
	v["proxy.self_ms"] = perOp("proxy.query", "proxy.update", "sparql.backend")
	v["proxy.apply_ms"] = perOp("proxy.apply")
	v["endpoint.encode_ms"] = perOp("endpoint.serve", "endpoint.encode")

	if w.name == "sparql_backend" {
		if err := probePlanner(ctx, sys, sc, next, v); err != nil {
			return nil, err
		}
	}
	if w.name == "sparql_hot" {
		probeHVS(sys, v)
	}

	out.tracePath = filepath.Join(env.outDir, "trace."+w.name+".json")
	if err := rec.write(out.tracePath); err != nil {
		return nil, err
	}
	return out, nil
}

// probeWrites times single-triple deltas at the store layer (no WAL is
// attached yet, no cache maintenance) and single-record appends at the
// wal layer, each alone.
func probeWrites(sys *system, d *dataset, dir string, v map[string]float64) error {
	const n = 24
	pool := d.writePool[max(0, len(d.writePool)-n):] // the tail no script round reaches
	var ins, del []float64
	for _, t := range pool {
		x, err := timed(func() error { return sys.applyOne(t, false) })
		if err != nil {
			return err
		}
		ins = append(ins, x)
	}
	for _, t := range pool {
		x, err := timed(func() error { return sys.applyOne(t, true) })
		if err != nil {
			return err
		}
		del = append(del, x)
	}
	v["store.apply_insert_ms"], v["store.apply_delete_ms"] = median(ins), median(del)

	p, err := openWALProbe(filepath.Join(dir, "wal-probe"))
	if err != nil {
		return err
	}
	var app []float64
	for _, t := range d.writePool[:min(64, len(d.writePool))] {
		x, err := timed(func() error { return p.append(t) })
		if err != nil {
			return err
		}
		app = append(app, x)
	}
	appends, bytes, err := p.close()
	if err != nil {
		return err
	}
	v["wal.append_ms"] = median(app)
	v["wal.bytes_per_record"] = float64(bytes) / float64(appends)
	return nil
}

// probeDecomposer times the index tier on the hot property expansions:
// the first call per (class, direction) computes the aggregate, the
// second serves the memo.
func probeDecomposer(sys *system, v map[string]float64) error {
	var cold, memo []float64
	for pass := 0; pass < 2; pass++ {
		for _, r := range hotSet() {
			if !strings.HasPrefix(r.key, "prop.") || strings.HasSuffix(r.key, ".Thing") {
				continue // object expansions are not decomposable; Thing was warmed
			}
			query, _ := url.ParseQuery(r.body)
			x, err := timed(func() error {
				ok, err := sys.decomposerTry(query.Get("query"))
				if err == nil && !ok {
					err = fmt.Errorf("decomposer did not recognise %s", r.key)
				}
				return err
			})
			if err != nil {
				return err
			}
			if pass == 0 {
				cold = append(cold, x)
			} else {
				memo = append(memo, x)
			}
		}
	}
	v["decomposer.try_cold_ms"], v["decomposer.try_memo_ms"] = mean(cold), mean(memo)
	return nil
}

// probeHVS times cache-tier lookups of the hot set after the replay has
// filled it.
func probeHVS(sys *system, v map[string]float64) {
	var srcs []string
	for _, r := range hotSet() {
		query, _ := url.ParseQuery(r.body)
		srcs = append(srcs, query.Get("query"))
	}
	const rounds = 2000
	hits := 0
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, src := range srcs {
			if sys.hvsLookup(src) {
				hits++
			}
		}
	}
	v["hvs.lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(srcs))
	v["hvs.probe_hit_ratio"] = float64(hits) / float64(rounds*len(srcs))
}

// probePlanner times Engine.Explain (parse + plan) against parse alone
// over one pass of the backend script.
func probePlanner(ctx context.Context, sys *system, sc script, k int, v map[string]float64) error {
	const reps = 20
	var plan float64
	for _, r := range sc(k) {
		query, _ := url.ParseQuery(r.body)
		src := query.Get("query")
		explain, err := timed(func() error {
			for i := 0; i < reps; i++ {
				if err := sys.planOnly(ctx, src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		parse, err := timed(func() error {
			for i := 0; i < reps; i++ {
				if err := parseQuery(src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		plan += (explain - parse) / reps
	}
	v["sparql.plan_ms"] = plan
	return nil
}

// probeIncremental runs the paper's third tier on the Person pane.
func probeIncremental(ctx context.Context, sys *system, v map[string]float64) error {
	t0 := time.Now()
	first := 0.0
	err := sys.streamPropertyChart(ctx, ont("Person"), func(bool) {
		if first == 0 {
			first = ms(time.Since(t0))
		}
	})
	v["incremental.first_partial_ms"], v["incremental.complete_ms"] = first, ms(time.Since(t0))
	return err
}
