package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// collectSink buffers a streamed result back into a Result — the inverse
// of ReplayResult — so the streamed rows can be compared with Execute's.
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

// TestExecuteRowsMatchesExecuteDifferential is the row-callback
// equivalence property: on random queries (the PR 2 generator), the
// streamed rows must equal Execute's rows in content AND order —
// byte-identical streaming encoders depend on it.
func TestExecuteRowsMatchesExecuteDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for trial := 0; trial < 400; trial++ {
		st, _ := genDiffStore(r)
		e := NewEngine(st)
		q := genDiffQuery(r)

		res, errExec := e.Execute(ctx, q)
		var sink collectSink
		errRows := e.ExecuteRows(ctx, q, &sink)
		if (errExec == nil) != (errRows == nil) {
			t.Fatalf("trial %d: error mismatch: exec=%v rows=%v\nquery:\n%s", trial, errExec, errRows, q)
		}
		if errExec != nil {
			continue
		}
		got := &sink.Result
		if q.Ask {
			if got.Ask != true || got.AskTrue != res.AskTrue {
				t.Fatalf("trial %d: ASK mismatch: exec=%v rows=%+v\nquery:\n%s", trial, res.AskTrue, got, q)
			}
			continue
		}
		if !reflect.DeepEqual(res.Vars, got.Vars) {
			t.Fatalf("trial %d: vars mismatch: exec=%v rows=%v\nquery:\n%s", trial, res.Vars, got.Vars, q)
		}
		if len(res.Rows) != len(got.Rows) {
			t.Fatalf("trial %d: row counts differ: exec=%d rows=%d\nquery:\n%s", trial, len(res.Rows), len(got.Rows), q)
		}
		for i := range res.Rows {
			if !reflect.DeepEqual(res.Rows[i], got.Rows[i]) {
				t.Fatalf("trial %d: row %d differs (order matters):\nexec: %v\nrows: %v\nquery:\n%s",
					trial, i, res.Rows[i], got.Rows[i], q)
			}
		}
	}
}

// TestExecuteRowsOffsetLimitAtEdge: the streaming path applies
// OFFSET/LIMIT at the decode edge; the slice semantics must match
// Execute exactly, including out-of-range offsets.
func TestExecuteRowsOffsetLimitAtEdge(t *testing.T) {
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
	for _, tc := range []struct{ offset, limit int }{
		{0, -1}, {0, 3}, {4, 3}, {4, -1}, {9, 5}, {10, -1}, {50, 2},
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
		var sink collectSink
		if err := e.ExecuteRows(context.Background(), q, &sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.Result.Rows) != len(res.Rows) {
			t.Errorf("offset=%d limit=%d: rows=%d want %d", tc.offset, tc.limit, len(sink.Result.Rows), len(res.Rows))
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

func TestExecuteRowsSinkErrorPropagates(t *testing.T) {
	st := store.New(16)
	if _, err := st.Load([]rdf.Triple{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/b")},
		{S: rdf.NewIRI("http://x/c"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/d")},
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	sink := &errSink{n: 1, err: boom}
	err := NewEngine(st).QueryRows(context.Background(), `SELECT ?s WHERE { ?s <http://x/p> ?o . }`, sink)
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
