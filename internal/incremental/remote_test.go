package incremental

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"elinda/internal/endpoint"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// TestRemoteMatchesLocal: paging the same graph over HTTP must converge
// to the same counts as the local chunked evaluator.
func TestRemoteMatchesLocal(t *testing.T) {
	st, _ := buildGraph(t, 11, 150)
	srv := httptest.NewServer(endpoint.NewServer(sparql.NewEngine(st)))
	defer srv.Close()

	// Local baseline.
	local := NewPropertyAggregator(nil, false)
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool { local.Observe(e); return true })
	want := decode(t, st.Dict(), local.Counts())

	rev := NewRemote(endpoint.NewClient(srv.URL), nil, Config{ChunkSize: 97})
	agg := NewPropertyAggregator(nil, false)
	final, err := rev.Run(context.Background(), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Error("remote run incomplete")
	}
	got := decode(t, rev.Dict(), final.Counts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote counts differ:\n got %v\nwant %v", got, want)
	}
	if final.TriplesSeen != st.Len() {
		t.Errorf("seen = %d, want %d", final.TriplesSeen, st.Len())
	}
}

func decode(t *testing.T, d *rdf.Dict, counts map[rdf.ID]int) map[string]int {
	t.Helper()
	out := map[string]int{}
	for id, n := range counts {
		term, ok := d.TermOK(id)
		if !ok {
			t.Fatalf("undecodable ID %d", id)
		}
		out[term.Value] = n
	}
	return out
}

func TestRemoteMaxRounds(t *testing.T) {
	st, _ := buildGraph(t, 12, 100)
	srv := httptest.NewServer(endpoint.NewServer(sparql.NewEngine(st)))
	defer srv.Close()
	rev := NewRemote(endpoint.NewClient(srv.URL), nil, Config{ChunkSize: 10, MaxRounds: 2})
	final, err := rev.Run(context.Background(), NewPropertyAggregator(nil, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != 2 || final.TriplesSeen != 20 {
		t.Errorf("snapshot = %+v", final)
	}
}

func TestRemoteEndpointFailure(t *testing.T) {
	boom := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		return nil, errors.New("connection refused")
	})
	rev := NewRemote(boom, nil, Config{ChunkSize: 10})
	if _, err := rev.Run(context.Background(), NewPropertyAggregator(nil, false), nil); err == nil {
		t.Error("endpoint failure swallowed")
	}
}

func TestRemoteCancellation(t *testing.T) {
	st, _ := buildGraph(t, 13, 50)
	rev := NewRemote(sparql.NewEngine(st), nil, Config{ChunkSize: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rev.Run(ctx, NewPropertyAggregator(nil, false), nil); err == nil {
		t.Error("cancelled remote run should error")
	}
}

func TestRemoteCallbackStops(t *testing.T) {
	st, _ := buildGraph(t, 14, 100)
	rev := NewRemote(sparql.NewEngine(st), nil, Config{ChunkSize: 10})
	final, err := rev.Run(context.Background(), NewPropertyAggregator(nil, false), func(s Snapshot) bool {
		return s.Round < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Round != 3 {
		t.Errorf("stopped at round %d", final.Round)
	}
}

func TestRemoteSkipsMalformedRows(t *testing.T) {
	// An endpoint returning rows with missing bindings must not crash the
	// aggregation.
	weird := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		return &sparql.Result{
			Vars: []string{"s", "p", "o"},
			Rows: []sparql.Solution{
				{"s": rdf.NewIRI("http://x/s")}, // missing p, o
				{"s": rdf.NewIRI("http://x/s"), "p": rdf.NewIRI("http://x/p"), "o": rdf.NewIRI("http://x/o")},
			},
		}, nil
	})
	rev := NewRemote(weird, nil, Config{ChunkSize: 10})
	agg := NewPropertyAggregator(nil, false)
	final, err := rev.Run(context.Background(), agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Counts) != 1 {
		t.Errorf("counts = %v", final.Counts)
	}
}
