package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"elinda/internal/rdf"
)

// fuzzSnapshotBytes serializes a small real store so the fuzzer starts
// from a valid snapshot and mutates from there.
func fuzzSnapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	st := New(8)
	for _, tr := range []rdf.Triple{
		mkTriple("alice", "knows", "bob"),
		mkTriple("bob", "knows", "carol"),
		{S: iri("alice"), P: rdf.NewIRI(rdf.RDFType), O: iri("Person")},
		{S: iri("alice"), P: iri("age"), O: rdf.NewLiteral("42")},
	} {
		if _, err := st.Add(tr); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot feeds arbitrary bytes to the binary snapshot loader.
// The contract: it never panics, and it never half-loads — either it
// returns an error, or the returned store is fully consistent (a full
// Scan visits Len triples, every one of them is Contains-able, reachable
// through its POS and OSP postings, and decodes through the dictionary).
func FuzzReadSnapshot(f *testing.F) {
	valid := fuzzSnapshotBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	if len(valid) > 40 {
		flipped := append([]byte(nil), valid...)
		flipped[40] ^= 0xff // corrupt the body → CRC mismatch
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("ELINDSN\x01")) // retired versions: rejected by name
	f.Add([]byte("ELINDSN\x02"))
	f.Add([]byte("ELINDSN\x03"))
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		snap := st.Snapshot()
		n := snap.Len()
		seen := 0
		snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
			seen++
			if !snap.Contains(e) {
				t.Fatalf("scanned triple %v not Contains-able", e)
			}
			if !containsSorted(snap.Subjects(e.P, e.O), e.S) {
				t.Fatalf("scanned triple %v missing from its POS postings", e)
			}
			if ps, _ := snap.Postings(e.S, rdf.NoID, e.O); !containsSorted(ps, e.P) {
				t.Fatalf("scanned triple %v missing from its OSP postings", e)
			}
			tr := snap.Triple(e)
			if tr.S.IsZero() || tr.P.IsZero() || tr.O.IsZero() {
				t.Fatalf("triple %v decodes to zero terms %v", e, tr)
			}
			return true
		})
		if seen != n {
			t.Fatalf("Scan visited %d triples, Len() = %d", seen, n)
		}
	})
}

// TestFuzzCorpusCurrent keeps the committed seed corpus under
// testdata/fuzz/FuzzReadSnapshot in step with the format: the valid seed
// must be what this build writes (a stale one only exercises the version
// check). STORE_WRITE_FUZZ_CORPUS=1 regenerates the format-dependent seeds.
func TestFuzzCorpusCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadSnapshot")
	valid := fuzzSnapshotBytes(t)
	flipped := append([]byte(nil), valid...)
	flipped[40] ^= 0xff
	for name, data := range map[string][]byte{
		"seed_valid":        valid,
		"seed_truncated":    valid[:len(valid)/2],
		"seed_corrupt_body": flipped,
		"seed_magic_v2":     []byte("ELINDSN\x02"),
	} {
		body := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
		path := filepath.Join(dir, name)
		if os.Getenv("STORE_WRITE_FUZZ_CORPUS") == "1" {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
			t.Errorf("committed fuzz seed %s is missing or stale (regenerate with STORE_WRITE_FUZZ_CORPUS=1): %v", name, err)
		}
	}
}
