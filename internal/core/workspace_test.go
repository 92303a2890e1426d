package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"elinda/internal/incremental"
	"elinda/internal/rdf"
)

func TestWorkspaceDrillDownPath(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	if w.Len() != 1 || w.Current().Origin != "initial" {
		t.Fatalf("initial workspace: %+v", w.Current())
	}
	for _, c := range []string{"Agent", "Person", "Philosopher"} {
		if _, err := w.DrillDown(ont(c)); err != nil {
			t.Fatalf("drill %s: %v", c, err)
		}
	}
	if w.Len() != 4 {
		t.Errorf("panes = %d", w.Len())
	}
	if got := w.Trail(); got != "Thing → Agent → Person → Philosopher" {
		t.Errorf("trail = %q", got)
	}
	if w.Current().Parent != 2 {
		t.Errorf("parent index = %d", w.Current().Parent)
	}
}

func TestWorkspaceDrillDownRejectsNonBar(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	// Philosopher is not a direct bar of the root chart.
	if _, err := w.DrillDown(ont("Philosopher")); err == nil {
		t.Error("non-bar drill-down accepted")
	}
	if w.Len() != 1 {
		t.Error("failed drill-down added a pane")
	}
}

func TestWorkspaceOpenBySearch(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	wp := w.OpenBySearch(ont("Philosopher"))
	if wp.Pane.Title != "Philosopher" || wp.Origin != "search:Philosopher" {
		t.Errorf("search pane: %+v", wp)
	}
}

func TestWorkspaceOpenConnections(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	w.OpenBySearch(ont("Philosopher"))
	wp, err := w.OpenConnections(ont("influencedBy"), ont("Scientist"), false)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Pane.Stats().Instances != 2 {
		t.Errorf("narrowed set = %d, want 2", wp.Pane.Stats().Instances)
	}
	if _, err := w.OpenConnections(ont("influencedBy"), ont("Place"), false); err == nil {
		t.Error("absent connection class accepted")
	}
	if _, err := w.OpenConnections(ont("nosuch"), ont("Scientist"), false); err == nil {
		t.Error("absent property accepted")
	}
}

func TestWorkspaceOpenFiltered(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	w.OpenBySearch(ont("Philosopher"))
	wp := w.OpenFiltered([]TableFilter{{Property: ont("birthPlace"), Equals: res("vienna")}})
	if wp.Pane.Stats().Instances != 1 {
		t.Errorf("Sf size = %d", wp.Pane.Stats().Instances)
	}
	if wp.Origin != "filter" {
		t.Errorf("origin = %q", wp.Origin)
	}
}

func TestWorkspaceClose(t *testing.T) {
	e := testFixture(t)
	w := NewWorkspace(e)
	w.OpenBySearch(ont("Person"))
	if !w.Close() {
		t.Error("Close failed")
	}
	if w.Close() {
		t.Error("initial pane must not close")
	}
	if w.Len() != 1 {
		t.Errorf("panes = %d", w.Len())
	}
}

func TestStreamPropertyChartConvergesToDirect(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	direct := pane.PropertyChart(false, -1)

	for _, chunk := range []int{1, 5, 1000} {
		partials := 0
		final, err := pane.StreamPropertyChart(context.Background(), false,
			IncrementalOptions{ChunkSize: chunk},
			func(c *Chart, s incremental.Snapshot) bool {
				partials++
				// Partial counts never exceed the direct chart's.
				for _, b := range c.Bars {
					db, ok := direct.Bar(b.Bar.Label)
					if !ok || b.Count > db.Count {
						t.Fatalf("partial bar %s=%d exceeds final", b.LabelText, b.Count)
					}
				}
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if partials == 0 {
			t.Error("no partial callbacks")
		}
		if !chartsEqual(final, direct) {
			t.Fatalf("chunk %d: streamed chart differs from direct", chunk)
		}
	}
}

func chartsEqual(a, b *Chart) bool {
	if len(a.Bars) != len(b.Bars) {
		return false
	}
	am := map[rdf.Term][3]int{}
	bm := map[rdf.Term][3]int{}
	for _, x := range a.Bars {
		am[x.Bar.Label] = [3]int{x.Count, x.Triples, int(x.Coverage * 1000)}
	}
	for _, x := range b.Bars {
		bm[x.Bar.Label] = [3]int{x.Count, x.Triples, int(x.Coverage * 1000)}
	}
	return reflect.DeepEqual(am, bm)
}

func TestStreamPropertyChartMaxRounds(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	rounds := 0
	_, err := pane.StreamPropertyChart(context.Background(), false,
		IncrementalOptions{ChunkSize: 3, MaxRounds: 2},
		func(c *Chart, s incremental.Snapshot) bool {
			rounds = s.Round
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("rounds = %d, want 2", rounds)
	}
}

func TestStreamPropertyChartCancel(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pane.StreamPropertyChart(ctx, false, IncrementalOptions{ChunkSize: 2}, nil); err == nil {
		t.Error("cancelled stream should error")
	}
}

func TestStreamPropertyChartIncomingBars(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	final, err := pane.StreamPropertyChart(context.Background(), true, IncrementalOptions{ChunkSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := pane.PropertyChart(true, -1)
	if !chartsEqual(final, direct) {
		t.Error("incoming streamed chart differs from direct")
	}
}

func TestStreamSubclassChartConvergesToDirect(t *testing.T) {
	e := testFixture(t)
	for _, class := range []rdf.Term{rdf.OWLThingIRI, ont("Agent"), ont("Person")} {
		pane := e.OpenPane(class)
		direct := pane.SubclassChart()
		for _, chunk := range []int{1, 5, 1000} {
			final, err := pane.StreamSubclassChart(context.Background(),
				IncrementalOptions{ChunkSize: chunk}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !chartsEqual(final, direct) {
				t.Fatalf("%s chunk %d: streamed subclass chart differs from direct", class, chunk)
			}
		}
	}
}

func TestStreamConnectionsChartConvergesToDirect(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("Philosopher"))
	direct, err := pane.ConnectionsChart(ont("influencedBy"), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1000} {
		final, err := pane.StreamConnectionsChart(context.Background(), ont("influencedBy"), false,
			IncrementalOptions{ChunkSize: chunk}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !chartsEqual(final, direct) {
			t.Fatalf("chunk %d: streamed connections chart differs from direct", chunk)
		}
	}
	// A property the set does not feature yields an empty chart, not an error.
	empty, err := pane.StreamConnectionsChart(context.Background(), ont("nosuchprop"), false,
		IncrementalOptions{ChunkSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Bars) != 0 {
		t.Errorf("absent property produced %d bars", len(empty.Bars))
	}
}

// TestStreamChartsEmptyPane: a pane over a class with no instances has a
// nil set, which must stream an empty chart — not fall into the
// aggregators' "nil means all subjects" mode and chart the whole store.
func TestStreamChartsEmptyPane(t *testing.T) {
	e := testFixture(t)
	pane := e.OpenPane(ont("NoSuchClass"))
	prop, err := pane.StreamPropertyChart(context.Background(), false, IncrementalOptions{ChunkSize: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prop.Bars) != 0 {
		t.Errorf("empty pane streamed %d property bars", len(prop.Bars))
	}
	sub, err := pane.StreamSubclassChart(context.Background(), IncrementalOptions{ChunkSize: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sub.Bars {
		if b.Count != 0 {
			t.Errorf("empty pane streamed subclass bar %s=%d", b.LabelText, b.Count)
		}
	}
}

func TestExplorerConcurrentHierarchy(t *testing.T) {
	e := testFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i%10 == 0 {
					// Writer: mutate the store so snapshots go stale.
					e.Store().Add(rdf.Triple{
						S: res(fmt.Sprintf("new%d", i)),
						P: rdf.TypeIRI,
						O: ont("Person"),
					})
				}
				h := e.Hierarchy()
				if h == nil {
					t.Error("nil hierarchy")
					return
				}
				e.OpenPane(ont("Person")).Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamedBarsExpandLikeDirect: the bars of a final streamed chart are
// real bars. On a static store each has the direct chart's bar's set, and
// expands to the same chart.
func TestStreamedBarsExpandLikeDirect(t *testing.T) {
	e := testFixture(t)
	ctx := context.Background()
	opts := IncrementalOptions{ChunkSize: 5}
	sameBars := func(what string, streamed *Chart, err error, direct *Chart, kind ExpansionKind) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertSameChart(t, what, streamed, direct)
		for _, sb := range streamed.Bars {
			db, _ := direct.Bar(sb.Bar.Label)
			got, err := e.Expand(sb.Bar, kind)
			if err != nil {
				t.Fatalf("%s: expanding %s: %v", what, sb.LabelText, err)
			}
			want, _ := e.Expand(db.Bar, kind)
			assertSameChart(t, fmt.Sprintf("%s, %s expanded", what, sb.LabelText), got, want)
		}
	}
	for _, class := range []rdf.Term{rdf.OWLThingIRI, ont("Person")} {
		pane := e.OpenPane(class)
		got, err := pane.StreamSubclassChart(ctx, opts, nil)
		sameBars(class.LocalName()+" subclass", got, err, pane.SubclassChart(), PropertyExpansion)
	}
	phil := e.OpenPane(ont("Philosopher"))
	for _, incoming := range []bool{false, true} {
		got, err := phil.StreamPropertyChart(ctx, incoming, opts, nil)
		sameBars(fmt.Sprintf("property incoming=%v", incoming), got, err, phil.PropertyChart(incoming, -1), objectKind(incoming))
	}
	got, err := phil.StreamConnectionsChart(ctx, ont("influencedBy"), false, opts, nil)
	direct, derr := phil.ConnectionsChart(ont("influencedBy"), false)
	if derr != nil {
		t.Fatal(derr)
	}
	direct.SourceSize = phil.Bar().Len() // the streamed chart's documented source
	sameBars("connections", got, err, direct, PropertyExpansion)
}
