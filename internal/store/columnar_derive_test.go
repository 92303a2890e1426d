package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// randomBatch draws n triples with IDs in [lo, lo+span), so a small span
// forces in-batch duplicates.
func randomBatch(r *rand.Rand, n int, lo, span rdf.ID) []rdf.EncodedTriple {
	out := make([]rdf.EncodedTriple, n)
	id := func() rdf.ID { return lo + rdf.ID(r.Int63n(int64(span))) }
	for i := range out {
		out[i] = rdf.EncodedTriple{S: id(), P: id(), O: id()}
	}
	return out
}

// TestDerivedPermutationsMatchSorts: the bulk load's one-sort base build
// (SPO from dedupBatch's sort, OSP and POS derived by stable counting
// passes) must equal three independent sorts array for array, with equal
// planner statistics, and a cold LoadStream must write the snapshot bytes
// of the serial three-sort reference load at any worker count.
func TestDerivedPermutationsMatchSorts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	one := rdf.EncodedTriple{S: 4, P: 5, O: 6}
	cases := map[string][]rdf.EncodedTriple{
		"empty":        nil,
		"one":          {one},
		"two":          {{S: 9, P: 2, O: 3}, one},
		"two-same":     {one, one},
		"dense-dups":   randomBatch(r, 2000, 1, 12),
		"sparse":       randomBatch(r, 5000, 1, 4000),
		"wide-ids":     append(randomBatch(r, 300, 1<<21-20, 40), randomBatch(r, 300, 1, 30)...),
		"wide-ids-dup": append(randomBatch(r, 400, 1<<22, 6), one, one),
	}
	cfg := datagen.DefaultConfig()
	cfg.Persons = 300
	ds := datagen.Generate(cfg)
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	var gen []rdf.EncodedTriple
	st.Snapshot().Scan(0, st.Len(), func(e rdf.EncodedTriple) bool { gen = append(gen, e); return true })
	r.Shuffle(len(gen), func(i, j int) { gen[i], gen[j] = gen[j], gen[i] })
	cases["datagen"] = append(gen, gen[:len(gen)/10]...)
	for name, enc := range cases {
		if err := store.BulkBuildMatchesOracle(enc); err != nil {
			t.Errorf("%s (%d triples): %v", name, len(enc), err)
		}
	}

	doc := rdf.FormatNTriples(ds.Triples)
	parsed, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := store.OracleLoad(parsed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := saveSnapshot(t, ref, filepath.Join(dir, "oracle.snap"))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		st := store.New(0)
		prev := runtime.GOMAXPROCS(procs)
		_, err := st.LoadStream(strings.NewReader(doc), store.StreamOptions{ChunkBytes: 16 << 10})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := saveSnapshot(t, st, filepath.Join(dir, fmt.Sprintf("w%d.snap", procs))); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: snapshot differs from the three-sort reference load (%d vs %d bytes)", procs, len(got), len(want))
		}
	}
}

func saveSnapshot(t *testing.T, st *store.Store, path string) []byte {
	t.Helper()
	if err := st.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
