package core

import (
	"context"
	"fmt"

	"elinda/internal/incremental"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Workspace manages the sequence of panes a user opens during a session
// (Section 3.2: "the user may open additional panes one beneath the
// other"). Each pane remembers how it was reached, giving the colored
// breadcrumb trails of Figure 2.
type Workspace struct {
	expl  *Explorer
	panes []*WorkspacePane
}

// WorkspacePane is one stacked pane plus its provenance.
type WorkspacePane struct {
	// Pane is the pane itself.
	Pane *Pane
	// Origin describes how the pane was opened (root, drill-down, search,
	// connections, filter).
	Origin string
	// Parent is the index of the pane this one was opened from (-1 for
	// the initial pane).
	Parent int
}

// NewWorkspace opens a workspace with the initial root pane.
func NewWorkspace(expl *Explorer) *Workspace {
	w := &Workspace{expl: expl}
	w.panes = append(w.panes, &WorkspacePane{
		Pane:   expl.OpenRootPane(),
		Origin: "initial",
		Parent: -1,
	})
	return w
}

// Panes returns the stacked panes in opening order.
func (w *Workspace) Panes() []*WorkspacePane { return w.panes }

// Current returns the most recently opened pane.
func (w *Workspace) Current() *WorkspacePane { return w.panes[len(w.panes)-1] }

// Len returns the number of open panes.
func (w *Workspace) Len() int { return len(w.panes) }

// DrillDown opens a new pane below the current one for a subclass bar of
// its subclass chart (a click on a bar).
func (w *Workspace) DrillDown(label rdf.Term) (*WorkspacePane, error) {
	cur := w.Current()
	chart := cur.Pane.SubclassChart()
	if _, ok := chart.Bar(label); !ok {
		return nil, fmt.Errorf("core: %s is not a subclass bar of pane %q", label, cur.Pane.Title)
	}
	return w.push(w.expl.OpenPane(label), "subclass:"+label.LocalName()), nil
}

// OpenBySearch opens a pane via the autocomplete search box, bypassing the
// drill-down.
func (w *Workspace) OpenBySearch(class rdf.Term) *WorkspacePane {
	return w.push(w.expl.OpenPane(class), "search:"+class.LocalName())
}

// OpenConnections opens a pane on the narrowed object set of a
// Connections-tab bar (Section 3.4's "new pane ... focusing on the
// aforementioned set of scientists").
func (w *Workspace) OpenConnections(prop rdf.Term, class rdf.Term, incoming bool) (*WorkspacePane, error) {
	cur := w.Current()
	chart, err := cur.Pane.ConnectionsChart(prop, incoming)
	if err != nil {
		return nil, err
	}
	bar, ok := chart.Bar(class)
	if !ok {
		return nil, fmt.Errorf("core: class %s not among the %s connections", class, prop)
	}
	return w.push(w.expl.OpenPaneForBar(bar.Bar), fmt.Sprintf("connect:%s→%s", prop.LocalName(), class.LocalName())), nil
}

// OpenFiltered opens a pane on Sf, the current set narrowed by filters
// (the filter expansion).
func (w *Workspace) OpenFiltered(filters []TableFilter) *WorkspacePane {
	cur := w.Current()
	sf := cur.Pane.FilterExpansion(filters)
	return w.push(w.expl.OpenPaneForBar(sf), "filter")
}

// Close removes the most recent pane; the initial pane cannot be closed.
// It reports whether a pane was removed.
func (w *Workspace) Close() bool {
	if len(w.panes) <= 1 {
		return false
	}
	w.panes = w.panes[:len(w.panes)-1]
	return true
}

// Trail renders the breadcrumb trail: pane titles joined by arrows.
func (w *Workspace) Trail() string {
	out := ""
	for i, p := range w.panes {
		if i > 0 {
			out += " → "
		}
		out += p.Pane.Title
	}
	return out
}

func (w *Workspace) push(p *Pane, origin string) *WorkspacePane {
	wp := &WorkspacePane{Pane: p, Origin: origin, Parent: len(w.panes) - 1}
	w.panes = append(w.panes, wp)
	return wp
}

// --- Incremental chart streaming (Section 4 wired into the UI model) ---

// IncrementalOptions configure streaming chart construction.
type IncrementalOptions struct {
	// ChunkSize is the administrator's N.
	ChunkSize int
	// MaxRounds is the administrator's k (0 = run to completion).
	MaxRounds int
}

// StreamPropertyChart computes the pane's property chart incrementally,
// invoking onPartial after every chunk with the chart built from the
// counts so far. The final chart is returned. Partial charts are sorted
// like final ones, so the frontend can render them directly — "effective
// latency for user interaction". Bars build their sets on first read, as
// StreamSubclassChart's do.
func (p *Pane) StreamPropertyChart(ctx context.Context, incoming bool, opts IncrementalOptions, onPartial func(*Chart, incremental.Snapshot) bool) (*Chart, error) {
	set := p.bar.Set()
	agg := incremental.NewPropertyAggregator(p.nonNilSet(), incoming)

	build := func(view *store.Snapshot) *Chart {
		triples := agg.TripleCounts()
		chart := &Chart{Kind: propertyKind(incoming), SourceLabel: p.bar.Label, SourceSize: p.bar.Len()}
		for prop, n := range agg.Counts() {
			members := func() []rdf.ID { return view.MembersWith(set, prop, incoming) }
			chart.Bars = append(chart.Bars, propertyBar(view, p.bar, prop, incoming, n, triples[prop], members))
		}
		sortBars(chart.Bars)
		return chart
	}
	return p.streamChart(ctx, opts, agg, build, onPartial)
}
