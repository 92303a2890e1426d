package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// collectSink buffers a streamed result back into a Result — the inverse
// of ReplayResult.
type collectSink struct {
	Result Result
}

func (c *collectSink) Head(vars []string, ask, askTrue bool) error {
	c.Result.Vars = vars
	c.Result.Ask = ask
	c.Result.AskTrue = askTrue
	return nil
}

func (c *collectSink) Row(sol Solution) error {
	c.Result.Rows = append(c.Result.Rows, sol)
	return nil
}

// TestExecuteOffsetLimitAtEdge: OFFSET/LIMIT slice the ten matching rows,
// including offsets at and past the end.
func TestExecuteOffsetLimitAtEdge(t *testing.T) {
	st := store.New(16)
	var ts []rdf.Triple
	for i := 0; i < 10; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
			P: rdf.NewIRI("http://x/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", i)),
		})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	for _, tc := range []struct{ offset, limit, want int }{
		{0, -1, 10}, {0, 3, 3}, {4, 3, 3}, {4, -1, 6}, {9, 5, 1}, {10, -1, 0}, {50, 2, 0},
	} {
		q, err := Parse(`SELECT ?s WHERE { ?s <http://x/p> ?o . }`)
		if err != nil {
			t.Fatal(err)
		}
		q.Offset, q.Limit = tc.offset, tc.limit
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.want {
			t.Errorf("offset=%d limit=%d: rows=%d want %d", tc.offset, tc.limit, len(res.Rows), tc.want)
		}
	}
}

// errSink aborts after n rows to verify sink errors propagate unchanged.
type errSink struct {
	n   int
	err error
}

func (s *errSink) Head(vars []string, ask, askTrue bool) error { return nil }
func (s *errSink) Row(sol Solution) error {
	s.n--
	if s.n < 0 {
		return s.err
	}
	return nil
}

func TestReplayResultSinkErrorPropagates(t *testing.T) {
	st := store.New(16)
	if _, err := st.Load([]rdf.Triple{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/b")},
		{S: rdf.NewIRI("http://x/c"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/d")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(st).Query(context.Background(), `SELECT ?s WHERE { ?s <http://x/p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	err = ReplayResult(res, &errSink{n: 1, err: boom})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the sink's error", err)
	}
}

func TestReplayResultRoundTrip(t *testing.T) {
	res := &Result{
		Vars: []string{"a", "b"},
		Rows: []Solution{
			{"a": rdf.NewIRI("http://x/1"), "b": rdf.NewLiteral("v")},
			{"a": rdf.NewIRI("http://x/2")},
		},
	}
	var sink collectSink
	if err := ReplayResult(res, &sink); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.Result.Vars, res.Vars) || !reflect.DeepEqual(sink.Result.Rows, res.Rows) {
		t.Errorf("round trip diverged: %+v", sink.Result)
	}
	ask := &Result{Ask: true, AskTrue: true}
	var askSink collectSink
	if err := ReplayResult(ask, &askSink); err != nil {
		t.Fatal(err)
	}
	if !askSink.Result.Ask || !askSink.Result.AskTrue {
		t.Errorf("ASK round trip diverged: %+v", askSink.Result)
	}
}
