package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"elinda/internal/rdf"
)

// TestConcurrentChartEvaluationWithWrites pins down the reader/writer
// contract of the store under exploration load: all store read methods are
// safe for concurrent use, Add takes an exclusive lock, and a stream reads
// the one snapshot it was bound to. Several goroutines evaluate charts — direct
// and streamed, the streamed ones with a parallel worker pool, so shard
// scans race the writer too — while one goroutine keeps mutating the KB.
// The readers also share the bars of one chart counted before the writes
// start and race each other to build their sets on first read.
// Run under -race, the test verifies the synchronization itself; the
// assertions verify that every observed chart is a consistent snapshot
// (counts never shrink below the pre-mutation baseline for pre-existing
// instances, and a shared bar's set is the one its count counted).
func TestConcurrentChartEvaluationWithWrites(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	baseline := pane.PropertyChart(false, -1)
	ctx := context.Background()

	var readers, writer sync.WaitGroup

	// The writer: grow the KB with a burst of fresh typed subjects and
	// property triples while the readers stream.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 400; i++ {
			s := res(fmt.Sprintf("conc%d", i))
			e.Store().Add(rdf.Triple{S: s, P: rdf.TypeIRI, O: ont("Person")})
			e.Store().Add(rdf.Triple{S: s, P: ont("birthPlace"), O: res("vienna")})
		}
	}()

	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			opts := IncrementalOptions{ChunkSize: 32}
			for i := 0; i < 8; i++ {
				final, err := pane.StreamPropertyChart(ctx, false, opts, nil)
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				// The writer never touches Philosopher instances, so the
				// baseline bars must keep at least their counts.
				for _, b := range baseline.Bars {
					if n := len(b.Bar.Set()); n != b.Count {
						t.Errorf("shared bar %s: %d members, count %d", b.LabelText, n, b.Count)
						return
					}
					got, ok := final.Bar(b.Bar.Label)
					if !ok || got.Count < b.Count {
						t.Errorf("bar %s shrank under concurrent writes", b.LabelText)
						return
					}
				}
				if _, err := pane.StreamSubclassChart(ctx, opts, nil); err != nil {
					t.Errorf("subclass stream: %v", err)
					return
				}
				if _, err := pane.StreamConnectionsChart(ctx, ont("influencedBy"), false, opts, nil); err != nil {
					t.Errorf("connections stream: %v", err)
					return
				}
				// Direct evaluations and hierarchy rebuilds race the same
				// writer through the store's read methods.
				pane.SubclassChart()
				e.Hierarchy()
				e.OpenPane(ont("Person")).Stats()
			}
		}(g)
	}
	readers.Wait()
	writer.Wait()
}
