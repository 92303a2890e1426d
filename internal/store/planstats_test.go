package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"elinda/internal/rdf"
)

// TestPlanStatsBasic checks the statistics against brute-force counts
// over the raw triples.
func TestPlanStatsBasic(t *testing.T) {
	st := New(0)
	ts := ingestCorpus(300)
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	ps := snap.PlanStats()
	if ps == nil {
		t.Fatal("snapshot has no planner statistics")
	}
	if ps.Triples != snap.Len() {
		t.Fatalf("stats cover %d triples, snapshot has %d", ps.Triples, snap.Len())
	}

	// Brute force from a full scan.
	type agg struct {
		count int
		subs  map[rdf.ID]struct{}
		objs  map[rdf.ID]struct{}
	}
	byPred := map[rdf.ID]*agg{}
	subjects := map[rdf.ID]struct{}{}
	objects := map[rdf.ID]struct{}{}
	snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		a := byPred[e.P]
		if a == nil {
			a = &agg{subs: map[rdf.ID]struct{}{}, objs: map[rdf.ID]struct{}{}}
			byPred[e.P] = a
		}
		a.count++
		a.subs[e.S] = struct{}{}
		a.objs[e.O] = struct{}{}
		subjects[e.S] = struct{}{}
		objects[e.O] = struct{}{}
		return true
	})
	if ps.Subjects != len(subjects) || ps.Objects != len(objects) {
		t.Fatalf("stats count %d subjects / %d objects, want %d / %d",
			ps.Subjects, ps.Objects, len(subjects), len(objects))
	}
	if len(ps.Preds) != len(byPred) {
		t.Fatalf("stats cover %d predicates, want %d", len(ps.Preds), len(byPred))
	}
	for _, stp := range ps.Preds {
		want := byPred[stp.Pred]
		if want == nil {
			t.Fatalf("stats name unknown predicate %d", stp.Pred)
		}
		if int(stp.Count) != want.count || int(stp.DistinctS) != len(want.subs) || int(stp.DistinctO) != len(want.objs) {
			t.Fatalf("predicate %d: got (count=%d ds=%d do=%d), want (%d %d %d)",
				stp.Pred, stp.Count, stp.DistinctS, stp.DistinctO,
				want.count, len(want.subs), len(want.objs))
		}
		got, ok := ps.PredStatOf(stp.Pred)
		if !ok || got != stp {
			t.Fatalf("PredStatOf(%d) = (%v, %v)", stp.Pred, got, ok)
		}
	}
	if _, ok := ps.PredStatOf(rdf.ID(1 << 30)); ok {
		t.Fatal("PredStatOf found a predicate that does not exist")
	}
}

// TestPlanStatsOverlayAndFold: overlay snapshots inherit the base's
// statistics; the fold that absorbs the overlay recomputes them.
func TestPlanStatsOverlayAndFold(t *testing.T) {
	st := New(0)
	if _, err := st.Load(ingestCorpus(300)); err != nil {
		t.Fatal(err)
	}
	base := st.Snapshot().PlanStats()
	if _, err := st.Add(mkTriple("ovl", "novelPred", "x")); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().PlanStats(); got != base {
		t.Fatal("overlay-resident Add should not rebuild the base statistics")
	}
	folded := compacted(st.Snapshot())
	ps := folded.PlanStats()
	if ps == base {
		t.Fatal("fold must recompute statistics")
	}
	if ps.Triples != folded.Len() {
		t.Fatalf("folded stats cover %d triples, snapshot has %d", ps.Triples, folded.Len())
	}
	id, ok := st.Dict().Lookup(iri("novelPred"))
	if !ok {
		t.Fatal("novel predicate not interned")
	}
	if _, ok := ps.PredStatOf(id); !ok {
		t.Fatal("folded statistics missing the overlay predicate")
	}
}

// TestPlanStatsTombstoneAudit audits the one fold (base − tombstones +
// delta): deleting triples, writing more through the overlay — one of
// them a tombstoned row coming back — and folding must equal a fresh load
// of only the surviving triples, on every read surface and bit for bit
// in the statistics.
func TestPlanStatsTombstoneAudit(t *testing.T) {
	ts := ingestCorpus(300)
	live := New(0)
	if _, err := live.Load(ts); err != nil {
		t.Fatal(err)
	}
	// Delete every 5th triple (base-resident → tombstones).
	var ops []rdf.TripleOp
	var survivors []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for i, tr := range ts {
		if seen[tr] {
			continue
		}
		seen[tr] = true
		if i%5 == 0 {
			ops = append(ops, rdf.Delete(tr))
		} else {
			survivors = append(survivors, tr)
		}
	}
	if _, err := live.Apply(DeltaOf(ops...)); err != nil {
		t.Fatal(err)
	}
	back := ops[3].Triple
	extra := []rdf.Triple{back, mkTriple("fold", "novelPred", "x"), mkTriple("fold", "novelPred", "y")}
	for _, tr := range extra {
		if _, err := live.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	survivors = append(survivors, extra...)
	if snap := live.Snapshot(); snap.tombEmpty() || snap.overlayEmpty() || !snap.tombstoned(live.dict.Encode(back)) {
		t.Fatal("expected tombstones (one under a re-inserted triple) and an overlay before the fold")
	}
	folded := compacted(live.Snapshot())
	if !folded.tombEmpty() || !folded.overlayEmpty() || folded.base.n != len(survivors) {
		t.Fatalf("fold left tombstones or an overlay, or covers %d triples instead of %d", folded.base.n, len(survivors))
	}
	live.snap.Store(folded)

	fresh := New(0)
	if _, err := fresh.Load(survivors); err != nil {
		t.Fatal(err)
	}
	assertSameReadSurface(t, live, fresh, append(ts, extra...))
	want := canonStats(fresh.Snapshot().PlanStats(), fresh.Dict())
	got := canonStats(folded.PlanStats(), live.Dict())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-fold statistics diverge from a fresh load of the survivors:\ngot  %+v\nwant %+v", got, want)
	}
}

// canonStats rewrites statistics into dictionary-independent form (the
// two stores intern terms in different orders, so raw IDs differ).
func canonStats(ps *PlanStats, d *rdf.Dict) map[string]any {
	preds := map[string][3]uint32{}
	for _, p := range ps.Preds {
		preds[d.Term(p.Pred).String()] = [3]uint32{p.Count, p.DistinctS, p.DistinctO}
	}
	return map[string]any{
		"triples": ps.Triples, "subjects": ps.Subjects, "objects": ps.Objects,
		"preds": preds,
	}
}

// TestPlanStatsPersistRoundTrip: the snapshot file carries the statistics
// and the loader hydrates them bit-identically instead of recomputing.
func TestPlanStatsPersistRoundTrip(t *testing.T) {
	st := New(0)
	if _, err := st.Load(ingestCorpus(300)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Snapshot().PlanStats(), st.Snapshot().PlanStats()) {
		t.Fatal("hydrated statistics diverge from the computed ones")
	}
}

// TestPlanStatsCorruptStatsFailLoudly: statistics that disagree with the
// file's own indexes are rejected even when the CRC is fixed up.
func TestPlanStatsCorruptStatsFailLoudly(t *testing.T) {
	st := New(0)
	if _, err := st.Load(ingestCorpus(300)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var statsBuf bytes.Buffer
	cw := &crcWriter{w: bufio.NewWriter(&statsBuf)}
	if err := writePlanStats(cw, st.Snapshot().PlanStats(), make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := cw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	statsOff := len(data) - 4 - statsBuf.Len()

	// Corrupt the first predicate's triple count (second u32 of the first
	// row, after the nPreds count) and fix the CRC so only the semantic
	// validation can catch it.
	corrupt := append([]byte(nil), data[:len(data)-4]...)
	pos := statsOff + 4 + 4 // skip nPreds and the pred ID
	binary.LittleEndian.PutUint32(corrupt[pos:], binary.LittleEndian.Uint32(corrupt[pos:])+1)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(corrupt))
	corrupt = append(corrupt, crc[:]...)

	if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("snapshot with self-inconsistent statistics loaded successfully")
	}
}
