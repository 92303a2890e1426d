package hvs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q1", res("a"), time.Second, 7, nil, nil)
	s.RecordFootprint("q2", res("b"), 2*time.Second, 7, nil, nil)
	s.Lookup("q1", 7)

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := New(time.Millisecond)
	if err := restored.Restore(&buf, 7); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored entries = %d", restored.Len())
	}
	got, ok := restored.Lookup("q1", 7)
	if !ok || got.Rows[0]["x"].Value != "http://x/a" {
		t.Errorf("restored lookup = (%v, %v)", got, ok)
	}
	e, ok := restored.Entry("q2")
	if !ok || e.Runtime != 2*time.Second {
		t.Errorf("restored entry metadata = %+v", e)
	}
}

func TestRestoreInvalidatesOnGenerationMismatch(t *testing.T) {
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 7, nil, nil)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The KB moved on while we were down (8), or the snapshot belongs to
	// another history (5): either way the restored entries must go, and
	// the cache must work at the KB's generation.
	for _, gen := range []uint64{8, 5} {
		restored := New(time.Millisecond)
		if err := restored.Restore(bytes.NewReader(buf.Bytes()), gen); err != nil {
			t.Fatal(err)
		}
		if _, ok := restored.Lookup("q", gen); ok {
			t.Errorf("generation %d: stale snapshot entry served", gen)
		}
		if restored.Len() != 0 {
			t.Errorf("generation %d: stale entries kept", gen)
		}
		restored.RecordFootprint("q", res("b"), time.Second, gen, nil, nil)
		if _, ok := restored.Lookup("q", gen); !ok {
			t.Errorf("generation %d: cache dead after restore", gen)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := New(time.Millisecond)
	if err := s.Restore(strings.NewReader("not a gob stream"), 0); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := New(time.Millisecond)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(time.Millisecond)
	if err := restored.Restore(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Error("empty snapshot produced entries")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	// Mutating the live store after Snapshot must not corrupt the bytes
	// already produced, and restored entries must be independent copies.
	s := New(time.Millisecond)
	s.RecordFootprint("q", res("a"), time.Second, 1, nil, nil)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Lookup("q", 2) // the generation moved: the live store clears
	restored := New(time.Millisecond)
	if err := restored.Restore(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Error("snapshot affected by later mutation")
	}
	// Hitting the restored store must not mutate the original.
	restored.Lookup("q", 1)
	if s.Len() != 0 {
		t.Error("restore aliased the original store")
	}
}

// TestRestoreRebuildsByteAccounting: restored entries regain their byte
// costs and LRU order, and a configured budget is enforced immediately.
func TestRestoreRebuildsByteAccounting(t *testing.T) {
	s := New(time.Millisecond)
	for _, q := range []string{"q1", "q2", "q3"} {
		s.RecordFootprint(q, resN(q, 10), time.Second, 1, nil, nil)
	}
	wantBytes := s.Stats().Bytes
	if wantBytes <= 0 {
		t.Fatal("source store has no byte accounting")
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := New(time.Millisecond)
	one := ResultBytes(resN("q1", 10))
	restored.MaxBytes = 2 * one // tighter than the snapshot's contents
	if err := restored.Restore(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Errorf("restored entries = %d, want 2 (budget enforced)", restored.Len())
	}
	if restored.Stats().Bytes > restored.MaxBytes {
		t.Errorf("restored bytes %d over budget %d", restored.Stats().Bytes, restored.MaxBytes)
	}
	// The surviving entries keep working: a lookup hit refreshes recency
	// and further records evict in LRU order without drift.
	restored.RecordFootprint("q4", resN("q4", 10), time.Second, 1, nil, nil)
	if restored.Stats().Bytes > restored.MaxBytes {
		t.Errorf("post-restore record broke the budget: %d > %d", restored.Stats().Bytes, restored.MaxBytes)
	}
}
