package store_test

import (
	"fmt"
	"strings"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func benchTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rdf.Triple{
			S: iri(fmt.Sprintf("s%d", i%1000)),
			P: iri(fmt.Sprintf("p%d", i%20)),
			O: iri(fmt.Sprintf("o%d", i)),
		})
	}
	return out
}

// BenchmarkLoad measures bulk insertion with dictionary encoding — the
// "dictionary encoding" ablation's cost side.
func BenchmarkLoad(b *testing.B) {
	ts := benchTriples(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.New(len(ts))
		if _, err := st.Load(ts); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ts)))
}

// BenchmarkLoadStream times the cold streaming ingest — parse, intern,
// dictionary commit and the columnar base build, the server's -load boot —
// over documents generated once in memory at two generator sizes:
// N-Triples (persons=N) and Turtle written by rdf.WriteTurtle
// (ttl/persons=N).
func BenchmarkLoadStream(b *testing.B) {
	for _, persons := range []int{2000, 20000} {
		cfg := datagen.DefaultConfig()
		cfg.Persons = persons
		triples := datagen.Generate(cfg).Triples
		var ttl strings.Builder
		if err := rdf.WriteTurtle(&ttl, triples); err != nil {
			b.Fatal(err)
		}
		for _, d := range []struct {
			name   string
			syntax rdf.Syntax
			doc    string
		}{
			{fmt.Sprintf("persons=%d", persons), rdf.SyntaxNTriples, rdf.FormatNTriples(triples)},
			{fmt.Sprintf("ttl/persons=%d", persons), rdf.SyntaxTurtle, ttl.String()},
		} {
			b.Run(d.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(d.doc)))
				for i := 0; i < b.N; i++ {
					if _, err := store.New(0).LoadStream(strings.NewReader(d.doc), store.StreamOptions{Syntax: d.syntax}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMatchBySubject(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	s, _ := st.Dict().Lookup(iri("s42"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Snapshot().Match(s, rdf.NoID, rdf.NoID, func(rdf.EncodedTriple) bool { n++; return true })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkMatchByPredicate(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	p, _ := st.Dict().Lookup(iri("p2"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		st.Snapshot().Match(rdf.NoID, p, rdf.NoID, func(rdf.EncodedTriple) bool { n++; return true })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkScanChunked(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offset := 0
		for {
			n := st.Snapshot().Scan(offset, 4096, func(rdf.EncodedTriple) bool { return true })
			if n == 0 {
				break
			}
			offset += n
		}
	}
}

func BenchmarkComputeStats(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := st.ComputeStats(); s.Triples == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkSnapshotObjects measures the zero-copy lock-free posting-list
// probe on a published snapshot — the executor's hottest read.
func BenchmarkSnapshotObjects(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	snap := st.Snapshot()
	s, _ := st.Dict().Lookup(iri("s42"))
	p, _ := st.Dict().Lookup(iri("p2"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(snap.Objects(s, p)) == 0 {
			b.Fatal("no postings")
		}
	}
}

// BenchmarkSnapshotPublish measures Snapshot() with a small pending delta
// — the linear merge of the overlay into a new columnar base.
func BenchmarkSnapshotPublish(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st.Add(rdf.Triple{S: iri("fresh"), P: iri("p"), O: iri(fmt.Sprintf("x%d", i))})
		b.StartTimer()
		if st.Snapshot().Len() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkAddDelta measures the copy-on-write sorted-delta insert path.
func BenchmarkAddDelta(b *testing.B) {
	st := store.New(0)
	st.Load(benchTriples(50_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Add(rdf.Triple{S: iri("s1"), P: iri("pX"), O: iri(fmt.Sprintf("n%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDelete times one tail-resident delete — the triple the
// insert before it put in the tail — on a 400 000-triple base with a
// sorted overlay of 0, 2 000 and 20 000 triples (none of them folds).
// Only the delete is timed.
func BenchmarkApplyDelete(b *testing.B) {
	base := make([]rdf.Triple, 400_000)
	for i := range base {
		base[i] = rdf.Triple{S: iri(fmt.Sprintf("s%d", i/8)), P: iri(fmt.Sprintf("p%d", i%8)), O: iri(fmt.Sprintf("o%d", i%1000))}
	}
	for _, overlay := range []int{0, 2_000, 20_000} {
		b.Run(fmt.Sprintf("overlay=%d", overlay), func(b *testing.B) {
			st := store.New(0)
			if _, err := st.Load(base); err != nil {
				b.Fatal(err)
			}
			var d store.Delta
			for i := 0; i < overlay; i++ {
				d.Insert(rdf.Triple{S: iri(fmt.Sprintf("d%d", i)), P: iri("p"), O: iri("x")})
			}
			if _, err := st.Apply(d); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := rdf.Triple{S: iri("victim"), P: iri("p"), O: iri(fmt.Sprintf("v%d", i))}
				b.StopTimer()
				if _, err := st.Add(t); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if res, err := st.Apply(store.DeltaOf(rdf.Delete(t))); err != nil || res.Deleted != 1 {
					b.Fatalf("delete: %+v, %v", res, err)
				}
			}
		})
	}
}
