package wal_test

// The delete-aware crash matrix: the PR-7 matrix drove single-triple
// inserts; this one drives the live mutation path — multi-op deltas
// through Store.Apply, mixing inserts, deletes and delete-then-reinsert
// batches — against the fault-injecting filesystem and crashes at every
// counted IO point.
//
// The invariants change shape with batches. A torn batch write can
// leave a durable prefix of the batch's records (the writer seals the
// segment and rotates after a failed write, so the garbage never hides
// later acknowledged data), which means the recovered op sequence is no
// longer simply "a prefix of the acknowledged ops". The precise
// statement, checked exactly below:
//
//  1. Decomposition: the recovered op sequence is a concatenation, in
//     submission order, of per-batch prefixes of the attempted
//     effective-op batches. Under SyncAlways an acknowledged batch must
//     contribute its whole prefix — durability before acknowledgement.
//  2. Consistency: replaying the recovered ops onto the recovered
//     snapshot yields exactly the survivor set a reference model predicts
//     from those same ops.
//  3. Equivalence: the recovered store is byte-identical (as a snapshot)
//     to a store built by applying the same ops — the acknowledged ones
//     the snapshot covers, then the replayed ones — in order, one delta
//     each.
//  4. Determinism: recovering twice from the same crash image yields
//     byte-identical store snapshots.

import (
	"bytes"
	"fmt"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

// opsScript is the deterministic raw delta sequence: every index
// inserts its triple, every third batch also deletes an earlier triple,
// every seventh deletes and re-inserts one (a membership no-op that still
// logs two records), and every fifth index is followed by a standalone
// delete delta.
func opsScript() [][]rdf.TripleOp {
	var batches [][]rdf.TripleOp
	for i := 0; i < crashInserts; i++ {
		b := []rdf.TripleOp{rdf.Insert(crashTriple(i))}
		if i%3 == 2 {
			b = append(b, rdf.Delete(crashTriple(i-2)))
		}
		if i%7 == 6 {
			b = append(b, rdf.Delete(crashTriple(i-5)), rdf.Insert(crashTriple(i-5)))
		}
		batches = append(batches, b)
		if i%5 == 4 {
			batches = append(batches, []rdf.TripleOp{rdf.Delete(crashTriple(i - 4))})
		}
	}
	return batches
}

// opsModel mirrors the store's membership semantics: the survivor set
// plus the effective-op reduction Apply performs (and therefore the exact
// record sequence it hands to the WAL).
type opsModel struct {
	seen map[rdf.Triple]bool
}

func newOpsModel() *opsModel { return &opsModel{seen: make(map[rdf.Triple]bool)} }

// effective reduces a raw delta to the ops Apply would log, evaluated
// against the model state plus the delta's own earlier ops.
func (m *opsModel) effective(ops []rdf.TripleOp) []rdf.TripleOp {
	pending := make(map[rdf.Triple]bool)
	var eff []rdf.TripleOp
	for _, op := range ops {
		present, overridden := pending[op.Triple]
		if !overridden {
			present = m.seen[op.Triple]
		}
		if op.Del != present {
			continue
		}
		eff = append(eff, op)
		pending[op.Triple] = !op.Del
	}
	return eff
}

// apply mutates the model with ops that are already effective in
// sequence (deletes of present triples, inserts of absent ones).
func (m *opsModel) apply(ops []rdf.TripleOp) {
	for _, op := range ops {
		if op.Del {
			delete(m.seen, op.Triple)
		} else {
			m.seen[op.Triple] = true
		}
	}
}

// matches reports whether the model's survivor set equals set.
func (m *opsModel) matches(set map[rdf.Triple]bool) bool {
	if len(m.seen) != len(set) {
		return false
	}
	for t := range set {
		if !m.seen[t] {
			return false
		}
	}
	return true
}

// step applies one replayed op if it is effective (replay hands back
// ops that were effective when logged; deletes of snapshot-absent
// triples can still occur when the snapshot postdates the record).
func (m *opsModel) step(op rdf.TripleOp) {
	if op.Del == m.seen[op.Triple] {
		m.apply([]rdf.TripleOp{op})
	}
}

// crashOpsWorkload runs the mutation workload on m and returns the
// attempted effective batches in submission order plus which of them
// were acknowledged. Failed Applies are tolerated; the WAL is never
// closed — the process dies mid-flight.
func crashOpsWorkload(m *vfs.Mem, policy wal.SyncPolicy) (batches [][]rdf.TripleOp, acked []bool) {
	w, err := wal.Open(crashDir, wal.Options{FS: m, Policy: policy, SegmentBytes: 512})
	if err != nil {
		return nil, nil
	}
	st := store.New(0)
	st.AttachWAL(w)
	model := newOpsModel()
	for i, raw := range opsScript() {
		eff := model.effective(raw)
		_, err := st.Apply(store.DeltaOf(raw...))
		ok := err == nil
		if ok {
			model.apply(eff)
		}
		batches = append(batches, eff)
		acked = append(acked, ok)
		if i == 13 || i == 27 {
			// Snapshot mid-stream — the store may hold live tombstones
			// here, which persistence must fold away exactly like a
			// tombstone-free store.
			_ = st.SaveSnapshotFS(m, crashSnapshot)
		}
	}
	return batches, acked
}

// crashRecoverOps performs the mutation-path recovery sequence
// (snapshot load → ReplayOps → Apply per record) and returns the
// recovered store, the pre-replay survivor set, and the replayed op
// sequence.
func crashRecoverOps(t *testing.T, m *vfs.Mem, desc string) (*store.Store, map[rdf.Triple]bool, []rdf.TripleOp) {
	t.Helper()
	var st *store.Store
	if _, err := m.Size(crashSnapshot); err == nil {
		st, err = store.OpenSnapshotFS(m, crashSnapshot)
		if err != nil {
			t.Fatalf("%s: durable snapshot failed to load: %v", desc, err)
		}
	} else {
		st = store.New(0)
	}
	pre := storedTriples(st)
	w, err := wal.Open(crashDir, wal.Options{FS: m})
	if err != nil {
		t.Fatalf("%s: reopening WAL: %v", desc, err)
	}
	defer w.Close()
	var ops []rdf.TripleOp
	if _, err := w.ReplayOps(func(op rdf.TripleOp) error {
		ops = append(ops, op)
		_, err := st.Apply(store.DeltaOf(op))
		return err
	}); err != nil {
		t.Fatalf("%s: replay: %v", desc, err)
	}
	return st, pre, ops
}

// opsDecomposable checks invariant 1 exactly: recovered must split into
// per-batch prefixes in batch order. strictAcked additionally forces
// acknowledged batches to contribute their full op list (SyncAlways).
// Exhaustive DP, not greedy — delete-and-re-insert batches repeat earlier
// ops, so an earliest-match walk could reject a valid decomposition.
func opsDecomposable(recovered []rdf.TripleOp, batches [][]rdf.TripleOp, acked []bool, strictAcked bool) bool {
	memo := make(map[[2]int]bool)
	var feasible func(b, r int) bool
	feasible = func(b, r int) bool {
		if b == len(batches) {
			return r == len(recovered)
		}
		key := [2]int{b, r}
		if v, ok := memo[key]; ok {
			return v
		}
		batch := batches[b]
		maxK := 0
		for maxK < len(batch) && r+maxK < len(recovered) && recovered[r+maxK] == batch[maxK] {
			maxK++
		}
		lo := 0
		if strictAcked && acked[b] {
			lo = len(batch)
		}
		res := false
		for k := lo; k <= maxK; k++ {
			if feasible(b+1, r+k) {
				res = true
				break
			}
		}
		memo[key] = res
		return res
	}
	return feasible(0, 0)
}

func assertOpsRecovery(t *testing.T, desc string, m *vfs.Mem, batches [][]rdf.TripleOp, acked []bool, policy wal.SyncPolicy) {
	t.Helper()
	st, pre, ops := crashRecoverOps(t, m, desc)

	// 1. Decomposition against the attempted batch sequence. A snapshot
	// save truncates the log at a batch boundary, so the replayed ops
	// cover a batch suffix; the snapshot must account for exactly the
	// skipped prefix. Candidate split points are the batch counts whose
	// model state reproduces the pre-replay survivors (truncation can
	// fail partway, so the actual split may precede the snapshot point —
	// re-replaying already-covered records is legal as long as the batch
	// structure holds).
	starts := snapshotStarts(batches, acked, pre)
	if len(starts) == 0 {
		t.Fatalf("%s: pre-replay snapshot state (%d survivors) matches no batch prefix", desc, len(pre))
	}
	ok := false
	for _, b0 := range starts {
		if opsDecomposable(ops, batches[b0:], acked[b0:], policy == wal.SyncAlways) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("%s: recovered %d ops do not decompose into per-batch prefixes of the %d attempted batches (starts %v)",
			desc, len(ops), len(batches), starts)
	}

	// 2. Model consistency: snapshot survivors + replayed ops must
	// predict the recovered triple set exactly.
	model := newOpsModel()
	for tr := range pre {
		model.seen[tr] = true
	}
	for _, op := range ops {
		model.step(op)
	}
	if got := storedTriples(st); !model.matches(got) || st.Len() != len(got) {
		t.Fatalf("%s: recovered %d survivors (Len %d), model predicts %d — or the sets differ", desc, len(got), st.Len(), len(model.seen))
	}

	// 3. Equivalence: the same ops applied in order to an empty store —
	// what the snapshot covers (the acknowledged batches before its
	// point, starts[0]), then what replay handed back — serialize
	// byte-identically to the recovered store.
	direct := store.New(0)
	applyEach := func(batch []rdf.TripleOp) {
		for _, op := range batch {
			if _, err := direct.Apply(store.DeltaOf(op)); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}
	}
	for b, batch := range batches[:starts[0]] {
		if acked[b] {
			applyEach(batch)
		}
	}
	applyEach(ops)
	if !bytes.Equal(snapshotBytes(t, desc, st), snapshotBytes(t, desc, direct)) {
		t.Fatalf("%s: snapshot-load + WAL-replay differs byte-wise from applying the same ops in order", desc)
	}

	// 4. Determinism: a second recovery from the same image is
	// byte-identical.
	st2, _, _ := crashRecoverOps(t, m, desc+"/again")
	if !bytes.Equal(snapshotBytes(t, desc, st), snapshotBytes(t, desc, st2)) {
		t.Fatalf("%s: two recoveries from one crash image diverged", desc)
	}
}

// snapshotStarts returns the candidate replay start points: every batch
// count up to the latest batch prefix whose acked-only model state
// reproduces the pre-replay survivor set. The snapshot pins that latest
// point; replay may start anywhere at or before it, because a failed
// truncation leaves older (already snapshot-covered) segments behind and
// replay legitimately re-applies them.
func snapshotStarts(batches [][]rdf.TripleOp, acked []bool, pre map[rdf.Triple]bool) []int {
	snapPoint := -1
	model := newOpsModel()
	if model.matches(pre) {
		snapPoint = 0
	}
	for b, batch := range batches {
		if acked[b] {
			model.apply(batch)
		}
		if model.matches(pre) {
			snapPoint = b + 1
		}
	}
	if snapPoint < 0 {
		return nil
	}
	starts := make([]int, 0, snapPoint+1)
	// Latest first: the common case is a clean truncation at the
	// snapshot point.
	for b0 := snapPoint; b0 >= 0; b0-- {
		starts = append(starts, b0)
	}
	return starts
}

// TestCrashMatrixDeletes is the exhaustive fault sweep over the
// mutation workload: fault modes × sync policies × every IO point.
func TestCrashMatrixDeletes(t *testing.T) {
	policies := []wal.SyncPolicy{wal.SyncAlways, wal.SyncOff}
	modes := []struct {
		name string
		mode vfs.FaultMode
	}{
		{"transient-error", vfs.FaultError},
		{"disk-gone", vfs.FaultErrorFrom},
		{"short-write", vfs.FaultShortWrite},
	}
	for _, policy := range policies {
		rehearsal := vfs.NewMem()
		batches, acked := crashOpsWorkload(rehearsal, policy)
		for i, ok := range acked {
			if !ok {
				t.Fatalf("fault-free %v workload failed batch %d", policy, i)
			}
		}
		width := rehearsal.Ops()
		if width < 50 {
			t.Fatalf("matrix width %d is implausibly small — is the workload going through vfs?", width)
		}
		assertOpsRecovery(t, fmt.Sprintf("%v/fault-free", policy), rehearsal.Crashed(), batches, acked, policy)

		for _, mode := range modes {
			for op := 0; op < width; op++ {
				desc := fmt.Sprintf("%v/%s/op%d", policy, mode.name, op)
				m := vfs.NewMem()
				m.InjectFault(op, mode.mode)
				batches, acked := crashOpsWorkload(m, policy)
				assertOpsRecovery(t, desc, m.Crashed(), batches, acked, policy)
			}
		}
	}
}
