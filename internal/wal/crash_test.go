package wal_test

// The crash matrix: run a write workload (inserts through an attached
// WAL, two snapshot saves, segment rotations) against the fault-injecting
// in-memory filesystem, crash it at EVERY counted IO point in every fault
// mode, recover the way the server does (snapshot load → WAL replay), and
// assert the two durability invariants:
//
//  1. Prefix: the recovered triple set equals the set after the first k
//     acknowledged inserts for some k — never a write the client was told
//     failed, never a gap. Under SyncAlways k is all of them.
//  2. Equivalence: the recovered store is byte-identical (as a snapshot)
//     to a store built by directly adding those first k triples in order —
//     replay does not produce a structurally different store.
//
// A fault-free rehearsal run measures the number of IO operations, which
// is the matrix width; determinism of that count is pinned by
// vfs.TestMemOpsDeterministic.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

const (
	crashDir      = "data"
	crashSnapshot = crashDir + "/kb.snap"
	crashInserts  = 40
)

func crashTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewLangLiteral(fmt.Sprintf("object %d", i), "en"),
	}
}

// crashWorkload runs the write workload on m and returns the triples
// whose Add was acknowledged. IO errors are tolerated the way a serving
// process tolerates them: the failed write is not acknowledged, later
// writes proceed. The WAL is deliberately never closed — the "process"
// dies mid-flight. Tiny segments force rotations inside the matrix.
func crashWorkload(m *vfs.Mem, policy wal.SyncPolicy) []rdf.Triple {
	w, err := wal.Open(crashDir, wal.Options{FS: m, Policy: policy, SegmentBytes: 512})
	if err != nil {
		return nil // the process never came up: nothing was acknowledged
	}
	st := store.New(0)
	st.AttachWAL(w)
	var acked []rdf.Triple
	for i := 0; i < crashInserts; i++ {
		t := crashTriple(i)
		ok, err := st.Add(t)
		if err == nil && ok {
			acked = append(acked, t)
		}
		if i == 13 || i == 27 {
			// Snapshot mid-stream; a failed save leaves the WAL covering
			// everything, which recovery must handle identically.
			_ = st.SaveSnapshotFS(m, crashSnapshot)
		}
	}
	return acked
}

// crashRecover performs the server's recovery sequence on a crashed
// filesystem and returns the recovered store.
func crashRecover(t *testing.T, m *vfs.Mem, desc string) *store.Store {
	t.Helper()
	var st *store.Store
	if _, err := m.Size(crashSnapshot); err == nil {
		// A durably published snapshot is valid by construction (synced
		// before rename, renamed before directory sync): if it exists it
		// must load.
		st, err = store.OpenSnapshotFS(m, crashSnapshot)
		if err != nil {
			t.Fatalf("%s: durable snapshot failed to load: %v", desc, err)
		}
	} else {
		st = store.New(0)
	}
	w, err := wal.Open(crashDir, wal.Options{FS: m})
	if err != nil {
		t.Fatalf("%s: reopening WAL: %v", desc, err)
	}
	defer w.Close()
	if _, err := w.ReplayOps(func(op rdf.TripleOp) error {
		_, err := st.Apply(store.DeltaOf(op))
		return err
	}); err != nil {
		t.Fatalf("%s: replay: %v", desc, err)
	}
	return st
}

// storedTriples returns the store's triple set.
func storedTriples(st *store.Store) map[rdf.Triple]bool {
	snap := st.Snapshot()
	out := make(map[rdf.Triple]bool, snap.Len())
	snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		out[snap.Triple(e)] = true
		return true
	})
	return out
}

// snapshotBytes serializes st for byte-level comparison.
func snapshotBytes(t *testing.T, desc string, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	return buf.Bytes()
}

// assertPrefix checks both invariants and returns k: the recovered triple
// set is exactly the first k acknowledged inserts (distinct triples, so k
// is the set's size), and the recovered store serializes byte-identically
// to a store built by adding those k in order — snapshot-plus-replay is
// not a second, subtly different store shape.
func assertPrefix(t *testing.T, desc string, recovered *store.Store, acked []rdf.Triple) int {
	t.Helper()
	got := storedTriples(recovered)
	k := len(got)
	if k != recovered.Len() {
		t.Fatalf("%s: Scan visited %d distinct triples, Len() = %d", desc, k, recovered.Len())
	}
	if k > len(acked) {
		t.Fatalf("%s: recovered %d triples, only %d were acknowledged", desc, k, len(acked))
	}
	direct := store.New(0)
	for i, tr := range acked[:k] {
		if !got[tr] {
			t.Fatalf("%s: recovered %d triples but not acknowledged insert %d (%v)", desc, k, i, tr)
		}
		if _, err := direct.Add(tr); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, desc, recovered), snapshotBytes(t, desc, direct)) {
		t.Fatalf("%s: snapshot-load + WAL-replay differs byte-wise from a direct load of the same %d triples", desc, k)
	}
	return k
}

// TestCrashMatrix is the exhaustive fault sweep. ~3 fault modes × 2 sync
// policies × every IO point of the workload — a few hundred full
// crash/recover cycles, all in memory.
func TestCrashMatrix(t *testing.T) {
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
		// Rehearsal: measure the matrix width and sanity-check the
		// fault-free workload end to end.
		rehearsal := vfs.NewMem()
		acked := crashWorkload(rehearsal, policy)
		if len(acked) != crashInserts {
			t.Fatalf("fault-free %v workload acked %d of %d inserts", policy, len(acked), crashInserts)
		}
		width := rehearsal.Ops()
		if width < 50 {
			t.Fatalf("matrix width %d is implausibly small — is the workload going through vfs?", width)
		}
		// Fault-free crash recovery: SyncAlways promises everything
		// acknowledged; SyncOff loses the active segment's unsynced tail
		// but still recovers a prefix covering every sealed segment.
		cleanDesc := fmt.Sprintf("%v/fault-free", policy)
		cleanK := assertPrefix(t, cleanDesc, crashRecover(t, rehearsal.Crashed(), cleanDesc), acked)
		if policy == wal.SyncAlways && cleanK != crashInserts {
			t.Fatalf("fault-free SyncAlways recovery found %d of %d triples", cleanK, crashInserts)
		}
		if policy == wal.SyncOff && cleanK < crashInserts/2 {
			t.Fatalf("fault-free SyncOff recovery found only %d of %d triples", cleanK, crashInserts)
		}

		for _, mode := range modes {
			for op := 0; op < width; op++ {
				desc := fmt.Sprintf("%v/%s/op%d", policy, mode.name, op)
				m := vfs.NewMem()
				m.InjectFault(op, mode.mode)
				acked := crashWorkload(m, policy)
				k := assertPrefix(t, desc, crashRecover(t, m.Crashed(), desc), acked)
				if policy == wal.SyncAlways && k != len(acked) {
					t.Fatalf("%s: SyncAlways recovered %d of %d acknowledged writes", desc, k, len(acked))
				}
			}
		}
	}
}

// TestCrashMatrixLateFaults crashes during the post-workload save as
// well: inject faults starting inside the final SaveSnapshotFS +
// TruncateBefore sequence, where a crash pairs an old/new snapshot with
// an untruncated/truncated log.
func TestCrashMatrixLateFaults(t *testing.T) {
	rehearsal := vfs.NewMem()
	crashWorkload(rehearsal, wal.SyncAlways)
	preSave := rehearsal.Ops()
	// Re-run with a final save appended to measure its op span.
	finalSave := func(m *vfs.Mem) ([]rdf.Triple, error) {
		w, err := wal.Open(crashDir, wal.Options{FS: m, Policy: wal.SyncAlways, SegmentBytes: 512})
		if err != nil {
			return nil, err
		}
		st := store.New(0)
		st.AttachWAL(w)
		var acked []rdf.Triple
		for i := 0; i < crashInserts; i++ {
			t := crashTriple(i)
			if ok, err := st.Add(t); err == nil && ok {
				acked = append(acked, t)
			}
		}
		return acked, st.SaveSnapshotFS(m, crashSnapshot)
	}
	full := vfs.NewMem()
	if _, err := finalSave(full); err != nil {
		t.Fatalf("fault-free final save: %v", err)
	}
	width := full.Ops()
	if width <= preSave/2 {
		t.Fatalf("late-fault width %d vs pre-save %d: workload changed shape", width, preSave)
	}
	for op := 0; op < width; op++ {
		desc := fmt.Sprintf("late/op%d", op)
		m := vfs.NewMem()
		m.InjectFault(op, vfs.FaultErrorFrom)
		acked, err := finalSave(m)
		if err != nil && !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("%s: unexpected error class: %v", desc, err)
		}
		if k := assertPrefix(t, desc, crashRecover(t, m.Crashed(), desc), acked); k != len(acked) {
			t.Fatalf("%s: SyncAlways recovered %d of %d", desc, k, len(acked))
		}
	}
}

// TestRecoveryIdempotent: recovering twice from the same crash image
// (e.g. the process crashes again right after replay) yields the same
// store.
func TestRecoveryIdempotent(t *testing.T) {
	m := vfs.NewMem()
	acked := crashWorkload(m, wal.SyncAlways)
	crashed := m.Crashed()
	first := crashRecover(t, crashed, "first")
	second := crashRecover(t, crashed, "second")
	if first.Len() != len(acked) || second.Len() != first.Len() {
		t.Fatalf("idempotence: acked=%d first=%d second=%d", len(acked), first.Len(), second.Len())
	}
	if !bytes.Equal(snapshotBytes(t, "first", first), snapshotBytes(t, "second", second)) {
		t.Fatal("two recoveries from one crash image diverged")
	}
}
