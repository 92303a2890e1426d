package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"elinda/internal/rdf"
)

// buildPersistStore assembles a store whose snapshot has both a columnar
// base and a live overlay (sorted delta + recent tail), so WriteSnapshot
// exercises the compaction fold.
func buildPersistStore(t *testing.T) *Store {
	t.Helper()
	st := New(0)
	ts := ingestCorpus(200)
	if _, err := st.Load(ts[:150]); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts[150:] {
		if _, err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// storeTriples decodes the store's triple set, sorted by N-Triples text
// (scan order differs between a store with an overlay and its reload).
func storeTriples(st *Store) []rdf.Triple {
	var out []rdf.Triple
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
		out = append(out, st.Dict().Decode(e))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := buildPersistStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.snap")
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Len() != st.Len() {
		t.Fatalf("len %d, want %d", loaded.Len(), st.Len())
	}
	if loaded.Generation() != st.Generation() {
		t.Fatalf("generation %d, want %d", loaded.Generation(), st.Generation())
	}
	if loaded.Dict().Len() != st.Dict().Len() {
		t.Fatalf("dict len %d, want %d", loaded.Dict().Len(), st.Dict().Len())
	}
	want := storeTriples(st)
	got := storeTriples(loaded)
	if len(got) != len(want) {
		t.Fatalf("scan found %d triples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("triple %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Index-backed reads behave identically.
	snapA, snapB := st.Snapshot(), loaded.Snapshot()
	for _, tr := range want[:50] {
		s, _ := st.Dict().Lookup(tr.S)
		p, _ := st.Dict().Lookup(tr.P)
		ls, _ := loaded.Dict().Lookup(tr.S)
		lp, _ := loaded.Dict().Lookup(tr.P)
		if s != ls || p != lp {
			t.Fatalf("dictionary IDs diverge for %v", tr)
		}
		a := snapA.Objects(s, p)
		b := snapB.Objects(ls, lp)
		if len(a) != len(b) {
			t.Fatalf("postings diverge for %v", tr)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("postings diverge for %v", tr)
			}
		}
	}
	if snapB.CardMatch(rdf.NoID, loaded.TypeID(), rdf.NoID) != snapA.CardMatch(rdf.NoID, st.TypeID(), rdf.NoID) {
		t.Fatal("type cardinality diverges")
	}

	// The loaded store stays fully writable.
	added, err := loaded.Add(rdf.Triple{S: rdf.NewIRI("http://x/new"), P: rdf.NewIRI("http://x/p0"), O: rdf.NewIRI("http://x/e1")})
	if err != nil || !added {
		t.Fatalf("post-load Add = (%v, %v)", added, err)
	}
	if loaded.Generation() != st.Generation()+1 {
		t.Fatal("generation did not advance after post-load Add")
	}

	// Saving the loaded store reproduces the file byte for byte.
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("WriteSnapshot is not deterministic across save/load")
	}
}

// validSnapshot returns the serialized bytes of a small store.
func validSnapshot(t *testing.T) []byte {
	t.Helper()
	st := New(0)
	if _, err := st.Load(ingestCorpus(40)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotCorruptionFailsLoudly flips single bytes across the file —
// header, dictionary, indexes, statistics, checksum — and every mutation must be
// rejected (the CRC covers the whole payload, so no flip can slip
// through as a silently wrong store).
func TestSnapshotCorruptionFailsLoudly(t *testing.T) {
	data := validSnapshot(t)
	// A sample of offsets spanning every section, plus the crc trailer.
	offsets := []int{8, 16, 21, 25, 40, len(data) / 3, len(data) / 2, 2 * len(data) / 3, len(data) - 5, len(data) - 1}
	for _, off := range offsets {
		if off < 0 || off >= len(data) {
			continue
		}
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x5a
		if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("byte flip at offset %d loaded successfully", off)
		}
	}
}

func TestSnapshotTruncationFailsLoudly(t *testing.T) {
	data := validSnapshot(t)
	for _, keep := range []int{0, 4, 7, 8, 20, 33, len(data) / 4, len(data) / 2, len(data) - 4, len(data) - 1} {
		if keep >= len(data) {
			continue
		}
		if _, err := ReadSnapshot(bytes.NewReader(data[:keep])); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", keep)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), data...), 0))); err == nil {
		t.Error("snapshot with trailing garbage loaded successfully")
	}
}

func TestSnapshotWrongVersionFailsLoudly(t *testing.T) {
	data := validSnapshot(t)
	// One past the current version, and the retired versions 1–3: all
	// are refused by the version byte alone, naming what was found and
	// what this build reads.
	for _, version := range []byte{data[7] + 1, 1, 2, 3} {
		other := append([]byte(nil), data...)
		other[7] = version
		_, err := ReadSnapshot(bytes.NewReader(other))
		want := fmt.Sprintf("version %d (this build reads only version %d)", version, data[7])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version byte %d: want an error naming %q, got %v", version, want, err)
		}
	}
	_, err := ReadSnapshot(strings.NewReader("definitely not a snapshot file"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

func TestSaveSnapshotIsAtomic(t *testing.T) {
	st := New(0)
	if _, err := st.Load(ingestCorpus(10)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.snap")
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second save; no temp files may remain.
	if _, err := st.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/b"), O: rdf.NewIRI("http://x/c")}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "kb.snap" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
	loaded, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != st.Len() {
		t.Fatalf("reloaded len %d, want %d", loaded.Len(), st.Len())
	}
}
