package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"elinda/internal/incremental"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// PaneStats are the numbers shown at the upper-left corner of a pane:
// "the total number of instances (i.e., |S|), and the number of direct and
// indirect subclasses that class type T has" (Section 3.2).
type PaneStats struct {
	Instances          int
	DirectSubclasses   int
	IndirectSubclasses int
}

// Pane visualizes data related to a set of subjects S, all of the same
// type T (Section 3.2). A pane is opened either for a class (S = all its
// instances) or for a narrowed set produced by an object or filter
// expansion ("Note that S does not necessarily include all instances of
// T").
type Pane struct {
	expl *Explorer
	// bar is the pane's underlying ⟨S, T, class⟩ bar.
	bar *Bar
	// Title is the display name of T.
	Title string
}

// OpenPane opens the pane for a class with S = all its direct instances.
func (e *Explorer) OpenPane(class rdf.Term) *Pane {
	snap := e.st.Snapshot()
	return &Pane{expl: e, bar: classBar(snap, class), Title: e.label(snap, class)}
}

// OpenRootPane opens the initial pane (owl:Thing, or a virtual root for
// rootless datasets).
func (e *Explorer) OpenRootPane() *Pane {
	snap := e.st.Snapshot()
	bar := e.rootBar(snap)
	title := "All instances"
	if !bar.Label.IsZero() {
		title = e.label(snap, bar.Label)
	}
	return &Pane{expl: e, bar: bar, Title: title}
}

// OpenPaneForBar opens a pane focused on an existing bar's (possibly
// narrowed) set — the "new pane ... focusing on the aforementioned set of
// scientists" of Section 3.4 and the filter expansion of Section 3.3.
func (e *Explorer) OpenPaneForBar(bar *Bar) *Pane {
	return &Pane{expl: e, bar: bar, Title: e.label(e.st.Snapshot(), bar.Label)}
}

// Bar returns the pane's underlying bar.
func (p *Pane) Bar() *Bar { return p.bar }

// Set returns S.
func (p *Pane) Set() []rdf.ID { return p.bar.Set() }

// Stats computes the pane-header statistics.
func (p *Pane) Stats() PaneStats {
	st := PaneStats{Instances: p.bar.Len()}
	if cid, ok := p.expl.st.Dict().Lookup(p.bar.Label); ok {
		direct, total := p.expl.Hierarchy().SubclassCounts(cid)
		st.DirectSubclasses = direct
		st.IndirectSubclasses = total - direct
	}
	return st
}

// SubclassChart returns the default chart of the pane.
func (p *Pane) SubclassChart() *Chart {
	return p.expl.subclassExpansion(p.bar)
}

// PropertyChart returns the Property Data tab's chart, already filtered by
// the explorer's coverage threshold. Pass threshold < 0 for the raw chart.
func (p *Pane) PropertyChart(incoming bool, threshold float64) *Chart {
	chart := p.expl.propertyExpansion(p.bar, incoming)
	if threshold < 0 {
		return chart
	}
	if threshold == 0 {
		threshold = p.expl.CoverageThreshold
	}
	return chart.Threshold(threshold)
}

// ConnectionsChart returns the Connections tab's chart for the chosen
// property: the object expansion of the property bar. Only that bar is
// built — S ∩ {s : (s, prop, ·)}, or the incoming form — not the pane's
// whole property chart.
func (p *Pane) ConnectionsChart(prop rdf.Term, incoming bool) (*Chart, error) {
	snap := p.expl.st.Snapshot()
	pid, ok := snap.Dict().Lookup(prop)
	var members []rdf.ID
	if ok {
		members = snap.MembersWith(p.bar.Set(), pid, incoming)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: property %s not featured by instances of %s", prop, p.Title)
	}
	bar := propertyBar(snap, p.bar, pid, incoming, len(members), 0, func() []rdf.ID { return members })
	return p.expl.objectExpansion(snap, bar.Bar, incoming), nil
}

// --- Streaming chart (Section 4 wired into the Property Data tab) ---

// IncrementalOptions configure streaming chart construction.
type IncrementalOptions struct {
	// ChunkSize is the administrator's N.
	ChunkSize int
	// MaxRounds is the administrator's k (0 = run to completion).
	MaxRounds int
}

// StreamPropertyChart computes the pane's property chart incrementally,
// invoking onPartial after every chunk of N triples with the chart built
// from the counts so far; onPartial returning false stops the stream
// early. The chart of the final observed state is returned. Partial charts
// are sorted like final ones, so the frontend can render them directly —
// "effective latency for user interaction". Every bar builds its set on
// first read, from the snapshot the stream reads: on the final chart that
// is the set its count counts, on a partial chart the set its count is
// still converging to.
func (p *Pane) StreamPropertyChart(ctx context.Context, incoming bool, opts IncrementalOptions, onPartial func(*Chart, incremental.Snapshot) bool) (*Chart, error) {
	set := p.bar.Set()
	// The aggregator reads a nil set as "all subjects", while an empty
	// pane must count nothing.
	counted := set
	if counted == nil {
		counted = []rdf.ID{}
	}
	agg := incremental.NewPropertyAggregator(counted, incoming)

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
	ev := incremental.New(p.expl.st, incremental.Config(opts))
	var final *Chart
	last, err := ev.Run(ctx, agg, func(s incremental.Snapshot) bool {
		chart := build(s.View)
		if s.Complete {
			final = chart
		}
		if onPartial != nil {
			return onPartial(chart, s)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		final = build(last.View)
	}
	return final, nil
}

// --- Data table (Section 3.3, "Browse instance data") ---

// TableFilter restricts rows by a property value condition.
type TableFilter struct {
	// Property is the filtered column's property.
	Property rdf.Term
	// Equals requires an exact value match when non-zero.
	Equals rdf.Term
	// Contains requires a substring match on the value's string form when
	// non-empty (used when Equals is zero).
	Contains string
}

// matches reports whether a value satisfies the filter.
func (f TableFilter) matches(v rdf.Term) bool {
	if !f.Equals.IsZero() {
		return v == f.Equals
	}
	if f.Contains != "" {
		return strings.Contains(v.Value, f.Contains)
	}
	return true
}

// DataTable presents instance data in tabular format: one row per
// instance, one column per selected property, "filled-in with actual
// values that are fetched from the dataset". It also exposes the SPARQL
// query it was generated from.
type DataTable struct {
	// Columns are the selected properties, in selection order.
	Columns []rdf.Term
	// Rows maps each instance to its values per column (possibly several
	// values per cell).
	Rows []TableRow
	// Query is the SPARQL the table was generated from.
	Query string
}

// TableRow is one instance's row.
type TableRow struct {
	// Instance is the row's subject.
	Instance rdf.Term
	// Values holds the cell values, indexed like Columns.
	Values [][]rdf.Term
}

// DataTable builds the table for the selected properties under the given
// filters. Filters restrict which rows appear but do not change the
// pane's set S ("the set S that is captured by the pane is left
// unchanged").
func (p *Pane) DataTable(props []rdf.Term, filters []TableFilter) *DataTable {
	d := p.expl.st.Dict()
	// One immutable snapshot for the whole table: every row reads the
	// same generation, lock-free.
	snap := p.expl.st.Snapshot()
	table := &DataTable{Columns: props, Query: p.tableSPARQL(props, filters)}

	propIDs := make([]rdf.ID, len(props))
	for i, pr := range props {
		propIDs[i], _ = d.Lookup(pr)
	}
	for _, s := range p.filtered(snap, filters) {
		row := TableRow{Instance: d.Term(s), Values: make([][]rdf.Term, len(props))}
		for i, pid := range propIDs {
			if pid == rdf.NoID {
				continue
			}
			for _, o := range snap.Objects(s, pid) {
				if t, valid := d.TermOK(o); valid {
					row.Values[i] = append(row.Values[i], t)
				}
			}
			slices.SortFunc(row.Values[i], rdf.Term.Compare)
		}
		table.Rows = append(table.Rows, row)
	}
	slices.SortFunc(table.Rows, func(a, b TableRow) int { return a.Instance.Compare(b.Instance) })
	return table
}

// filtered returns the members of S that satisfy every filter in snap: a
// member needs, per filter, one value of the filter's property that
// matches it. A filter on a property the store has never seen is ignored.
func (p *Pane) filtered(snap *store.Snapshot, filters []TableFilter) []rdf.ID {
	d := snap.Dict()
	var known []TableFilter
	var props []rdf.ID
	for _, f := range filters {
		if fid, ok := d.Lookup(f.Property); ok {
			known, props = append(known, f), append(props, fid)
		}
	}
	var kept []rdf.ID
members:
	for _, s := range p.bar.Set() {
		for i, f := range known {
			if !slices.ContainsFunc(snap.Objects(s, props[i]), func(o rdf.ID) bool {
				t, valid := d.TermOK(o)
				return valid && f.matches(t)
			}) {
				continue members
			}
		}
		kept = append(kept, s)
	}
	return kept
}

// tableSPARQL renders the query a data table was generated from: the
// pane's pattern plus one OPTIONAL block per column and the filters.
func (p *Pane) tableSPARQL(props []rdf.Term, filters []TableFilter) string {
	pattern := p.bar.pat().clone()
	anchor := pattern.anchor
	items := []sparql.SelectItem{{Var: anchor}}
	group := &sparql.GroupPattern{
		Triples: append([]sparql.TriplePattern(nil), pattern.triples...),
		Filters: append([]sparql.Expr(nil), pattern.filters...),
	}
	for i, prop := range props {
		v := fmt.Sprintf("v%d", i+1)
		items = append(items, sparql.SelectItem{Var: v})
		group.Optionals = append(group.Optionals, &sparql.GroupPattern{
			Triples: []sparql.TriplePattern{tpVar(anchor, prop, v)},
		})
	}
	for i, f := range filters {
		v := fmt.Sprintf("f%d", i+1)
		group.Triples = append(group.Triples, tpVar(anchor, f.Property, v))
		if !f.Equals.IsZero() {
			group.Filters = append(group.Filters, eqExpr(v, f.Equals))
		} else if f.Contains != "" {
			group.Filters = append(group.Filters, containsExpr(v, f.Contains))
		}
	}
	q := &sparql.Query{Items: items, Where: group, Limit: -1}
	return q.String()
}

// FilterExpansion opens a new bar Sf — the pane's set narrowed by the
// filters — for exploration "using all available expansions that will now
// operate on a narrowed set" (Section 3.3).
func (p *Pane) FilterExpansion(filters []TableFilter) *Bar {
	kept := p.filtered(p.expl.st.Snapshot(), filters)
	pattern := p.bar.pat().clone()
	for _, f := range filters {
		v := pattern.freshVar("f")
		pattern.triples = append(pattern.triples, tpVar(pattern.anchor, f.Property, v))
		if !f.Equals.IsZero() {
			pattern.filters = append(pattern.filters, eqExpr(v, f.Equals))
		} else if f.Contains != "" {
			pattern.filters = append(pattern.filters, containsExpr(v, f.Contains))
		}
	}
	return newBar(kept, p.bar.Label, ClassBar, pattern)
}
