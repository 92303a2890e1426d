package store_test

import (
	"fmt"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

func walTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewLiteral(fmt.Sprintf("v%d", i)),
	}
}

func recoverStore(t *testing.T, m *vfs.Mem, snapPath, walDir string) *store.Store {
	t.Helper()
	var st *store.Store
	if _, err := m.Size(snapPath); err == nil {
		st, err = store.OpenSnapshotFS(m, snapPath)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		st = store.New(0)
	}
	w, err := wal.Open(walDir, wal.Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.ReplayOps(func(op rdf.TripleOp) error {
		_, err := st.Apply(store.DeltaOf(op))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAttachedWALSurvivesCrash: acknowledged Adds on a WAL-attached store
// survive a crash with no snapshot ever taken.
func TestAttachedWALSurvivesCrash(t *testing.T) {
	m := vfs.NewMem()
	w, err := wal.Open("data", wal.Options{FS: m, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	st.AttachWAL(w)
	for i := 0; i < 10; i++ {
		if ok, err := st.Add(walTriple(i)); err != nil || !ok {
			t.Fatalf("add %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Duplicate adds are not re-logged.
	if ok, err := st.Add(walTriple(3)); err != nil || ok {
		t.Fatalf("duplicate add: ok=%v err=%v", ok, err)
	}

	rec := recoverStore(t, m.Crashed(), "data/kb.snap", "data")
	if rec.Len() != 10 {
		t.Fatalf("recovered %d of 10 triples", rec.Len())
	}
	for i := 0; i < 10; i++ {
		if !rec.Snapshot().ContainsTriple(walTriple(i)) {
			t.Fatalf("triple %d missing after recovery", i)
		}
	}
}

// TestLoadGoesThroughWAL: bulk loads are durable before acknowledgement
// too.
func TestLoadGoesThroughWAL(t *testing.T) {
	m := vfs.NewMem()
	w, err := wal.Open("data", wal.Options{FS: m, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	st.AttachWAL(w)
	ts := make([]rdf.Triple, 50)
	for i := range ts {
		ts[i] = walTriple(i)
	}
	if n, err := st.Load(ts); err != nil || n != 50 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	rec := recoverStore(t, m.Crashed(), "data/kb.snap", "data")
	if rec.Len() != 50 {
		t.Fatalf("recovered %d of 50 bulk-loaded triples", rec.Len())
	}
}

// TestSaveSnapshotCheckpointsWAL: a snapshot save truncates the segments
// it covers, and snapshot + remaining log still recover everything.
func TestSaveSnapshotCheckpointsWAL(t *testing.T) {
	m := vfs.NewMem()
	w, err := wal.Open("data", wal.Options{FS: m, Policy: wal.SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	st.AttachWAL(w)
	for i := 0; i < 20; i++ {
		if _, err := st.Add(walTriple(i)); err != nil {
			t.Fatal(err)
		}
	}
	preSave, err := m.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshotFS(m, "data/kb.snap"); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		if _, err := st.Add(walTriple(i)); err != nil {
			t.Fatal(err)
		}
	}
	postSave, err := m.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(postSave) >= len(preSave)+1 {
		t.Fatalf("snapshot did not truncate the WAL: %d entries before, %v after", len(preSave), postSave)
	}
	for _, name := range postSave {
		if strings.HasSuffix(name, vfs.TempSuffix) {
			t.Fatalf("save left a temp file behind: %v", postSave)
		}
	}

	rec := recoverStore(t, m.Crashed(), "data/kb.snap", "data")
	if rec.Len() != 25 {
		t.Fatalf("snapshot+WAL recovery found %d of 25 triples", rec.Len())
	}
	if rec.Generation() != 25 {
		t.Fatalf("recovered generation %d, want 25", rec.Generation())
	}
}

// TestWALAppendFailureRejectsWrite: when the log cannot accept a record
// the Add fails, nothing becomes visible, and the store keeps serving.
func TestWALAppendFailureRejectsWrite(t *testing.T) {
	m := vfs.NewMem()
	w, err := wal.Open("data", wal.Options{FS: m, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	st.AttachWAL(w)
	if _, err := st.Add(walTriple(0)); err != nil {
		t.Fatal(err)
	}
	gen := st.Generation()
	m.InjectFault(m.Ops(), vfs.FaultError)
	if ok, err := st.Add(walTriple(1)); err == nil {
		t.Fatalf("add during injected fault: ok=%v err=nil", ok)
	}
	if st.Len() != 1 || st.Generation() != gen {
		t.Fatalf("rejected write leaked into the store: len=%d gen=%d", st.Len(), st.Generation())
	}
	if st.Snapshot().ContainsTriple(walTriple(1)) {
		t.Fatal("rejected triple is visible")
	}
	// The store recovers on the next write.
	if ok, err := st.Add(walTriple(2)); err != nil || !ok {
		t.Fatalf("add after transient fault: ok=%v err=%v", ok, err)
	}
}
