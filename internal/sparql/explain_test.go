package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

func explainFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New(64)
	for i := 0; i < 12; i++ {
		st.Add(rdf.Triple{
			S: ex(fmt.Sprintf("n%d", i)),
			P: ex("edge"),
			O: ex(fmt.Sprintf("n%d", (i+1)%12)),
		})
		st.Add(rdf.Triple{S: ex(fmt.Sprintf("n%d", i)), P: rdf.TypeIRI, O: ex("Node")})
	}
	return st
}

func TestExplainTriangle(t *testing.T) {
	eng := NewEngine(explainFixture(t))
	rep, err := eng.Explain(context.Background(), `SELECT * WHERE {
  ?a <http://example.org/edge> ?b .
  ?b <http://example.org/edge> ?c .
  ?c <http://example.org/edge> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "greedy" {
		t.Errorf("mode = %q, want greedy", rep.Mode)
	}
	if !rep.Leapfrog {
		t.Error("leapfrog should be eligible")
	}
	if len(rep.Patterns) != 3 {
		t.Fatalf("patterns = %d, want 3", len(rep.Patterns))
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %v, want a scan then a leapfrog group", rep.Steps)
	}
	if rep.Steps[0].Kind != "scan" || len(rep.Steps[0].Patterns) != 1 {
		t.Errorf("step 0 = %+v, want a single-pattern scan", rep.Steps[0])
	}
	if rep.Steps[1].Kind != "leapfrog" || len(rep.Steps[1].Patterns) != 2 || rep.Steps[1].Var == "" {
		t.Errorf("step 1 = %+v, want a 2-pattern leapfrog group", rep.Steps[1])
	}
	if rep.Steps[1].EstRows <= 0 {
		t.Errorf("est_rows = %v, want > 0", rep.Steps[1].EstRows)
	}
	if s := rep.String(); !strings.Contains(s, "leapfrog") || !strings.Contains(s, "mode=greedy") {
		t.Errorf("rendered report:\n%s", s)
	}
}

// edgeChain renders an n-pattern path query ?v0 → ?v1 → … → ?vn over the
// fixture's edge predicate.
func edgeChain(n int) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  ?v%d <http://example.org/edge> ?v%d .\n", i, i+1)
	}
	b.WriteString("}")
	return b.String()
}

// TestExplainMode: Mode says whether the orderer produced the steps —
// greedy at every BGP size from two patterns, and "none" when nothing was
// ordered (one pattern, or more than 64 variables), in which
// case the steps keep query order and carry no row estimates.
func TestExplainMode(t *testing.T) {
	eng := NewEngine(explainFixture(t))
	for _, tc := range []struct {
		patterns int
		want     string
	}{
		{1, "none"},
		{2, "greedy"},
		{10, "greedy"},
		{11, "greedy"},
		{64, "none"}, // 65 variables: outside the planner's bitmask model
	} {
		rep, err := eng.Explain(context.Background(), edgeChain(tc.patterns))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != tc.want {
			t.Errorf("%d patterns: mode = %q, want %q", tc.patterns, rep.Mode, tc.want)
		}
		if tc.want != "none" {
			continue
		}
		if rep.Steps[0].EstRows != 0 {
			t.Errorf("%d patterns: unordered est_rows = %v, want 0", tc.patterns, rep.Steps[0].EstRows)
		}
		if rep.Steps[0].Patterns[0] != rep.Patterns[0] {
			t.Errorf("%d patterns: unordered plan must keep query order: %v vs %v",
				tc.patterns, rep.Steps[0].Patterns, rep.Patterns)
		}
	}
}

// TestExplainSubselectFirst: a subselect joined before the BGP seeds it
// with bound rows, so the executor runs the triangle as cascaded probes,
// and EXPLAIN must report the same plan: leapfrog off, no leapfrog step.
func TestExplainSubselectFirst(t *testing.T) {
	eng := NewEngine(explainFixture(t))
	rep, err := eng.Explain(context.Background(), `SELECT * WHERE {
  { SELECT ?a WHERE { ?a a <http://example.org/Node> } }
  ?a <http://example.org/edge> ?b .
  ?b <http://example.org/edge> ?c .
  ?c <http://example.org/edge> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leapfrog {
		t.Error("leapfrog must be reported off after a subselect")
	}
	if len(rep.Steps) != 3 {
		t.Errorf("steps = %+v, want one step per pattern", rep.Steps)
	}
	for _, s := range rep.Steps {
		if s.Kind == "leapfrog" {
			t.Errorf("step %+v: the executor runs no leapfrog group here", s)
		}
	}
	if s := rep.String(); strings.Contains(s, "leapfrog ?") || !strings.Contains(s, "leapfrog=false") {
		t.Errorf("rendered report:\n%s", s)
	}
}

func TestExplainParseError(t *testing.T) {
	eng := NewEngine(explainFixture(t))
	if _, err := eng.Explain(context.Background(), "SELECT WHERE {"); err == nil {
		t.Fatal("parse error not surfaced")
	}
}
