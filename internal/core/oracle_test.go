package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// The chart oracle: the per-triple walks the explorer used before its
// property chart moved onto the store's property-distribution kernel and
// its subclass chart onto sorted intersections. They stay here, in test
// code only, as the reference the production charts must reproduce —
// member lists included, which the production bars build only when read.

func idSet(ids []rdf.ID) map[rdf.ID]struct{} {
	m := make(map[rdf.ID]struct{}, len(ids))
	for _, id := range ids {
		m[id] = struct{}{}
	}
	return m
}

// oracleSubclassChart filters each subclass's instances through a hash
// set of S.
func oracleSubclassChart(e *Explorer, b *Bar) *Chart {
	h := e.Hierarchy()
	chart := &Chart{Kind: SubclassExpansion, SourceLabel: b.Label, SourceSize: b.Len()}
	var subclasses []rdf.ID
	if b.Label.IsZero() {
		subclasses = h.TopLevelClasses()
	} else if cid, ok := e.st.Dict().Lookup(b.Label); ok {
		subclasses = h.DirectSubclasses(cid)
	}
	snap := e.st.Snapshot()
	inSet := idSet(b.Set())
	for _, sub := range subclasses {
		subTerm := snap.Dict().Term(sub)
		var members []rdf.ID
		for _, s := range snap.SubjectsOfType(sub) {
			if _, in := inSet[s]; in {
				members = append(members, s)
			}
		}
		chart.Bars = append(chart.Bars, ChartBar{
			Bar:       newBar(members, subTerm, ClassBar, b.pat().withType(subTerm)),
			LabelText: snap.Label(sub),
			Count:     len(members),
		})
	}
	sortBars(chart.Bars)
	return chart
}

// oraclePropertyChart pushes every triple of every member through a map.
func oraclePropertyChart(e *Explorer, b *Bar, incoming bool) *Chart {
	kind := PropertyExpansion
	if incoming {
		kind = IncomingPropertyExpansion
	}
	chart := &Chart{Kind: kind, SourceLabel: b.Label, SourceSize: b.Len()}
	type agg struct {
		members []rdf.ID
		triples int
	}
	perProp := map[rdf.ID]*agg{}
	snap := e.st.Snapshot()
	for _, s := range b.Set() {
		seen := map[rdf.ID]bool{}
		visit := func(t rdf.EncodedTriple) bool {
			a := perProp[t.P]
			if a == nil {
				a = &agg{}
				perProp[t.P] = a
			}
			a.triples++
			if !seen[t.P] {
				seen[t.P] = true
				a.members = append(a.members, s)
			}
			return true
		}
		if incoming {
			snap.Match(rdf.NoID, rdf.NoID, s, visit)
		} else {
			snap.Match(s, rdf.NoID, rdf.NoID, visit)
		}
	}
	denom := float64(b.Len())
	for p, a := range perProp {
		pTerm := snap.Dict().Term(p)
		cb := ChartBar{
			Bar:       newBar(a.members, pTerm, PropertyBar, b.pat().withProperty(pTerm, incoming)),
			LabelText: snap.Label(p),
			Count:     len(a.members),
			Triples:   a.triples,
		}
		if denom > 0 {
			cb.Coverage = float64(cb.Count) / denom
		}
		chart.Bars = append(chart.Bars, cb)
	}
	sortBars(chart.Bars)
	return chart
}

// oracleConnectionsChart builds the whole oracle property chart and
// object-expands the chosen bar.
func oracleConnectionsChart(p *Pane, prop rdf.Term, incoming bool) (*Chart, error) {
	bar, ok := oraclePropertyChart(p.expl, p.bar, incoming).Bar(prop)
	if !ok {
		return nil, fmt.Errorf("core: property %s not featured by instances of %s", prop, p.Title)
	}
	return p.expl.objectExpansion(p.expl.st.Snapshot(), bar.Bar, incoming), nil
}

// assertSameChart compares two charts bar by bar — label, text, count,
// coverage, triples, member list (order included) and generated SPARQL —
// and holds every bar of got to len(Set()) = Count = Len(). Bars tied on
// count and label text are compared in IRI order.
func assertSameChart(t *testing.T, what string, got, want *Chart) {
	t.Helper()
	if got.Kind != want.Kind || got.SourceLabel != want.SourceLabel || got.SourceSize != want.SourceSize {
		t.Fatalf("%s: header (%v %v %d), oracle (%v %v %d)", what,
			got.Kind, got.SourceLabel, got.SourceSize, want.Kind, want.SourceLabel, want.SourceSize)
	}
	if len(got.Bars) != len(want.Bars) {
		t.Fatalf("%s: %d bars, oracle %d", what, len(got.Bars), len(want.Bars))
	}
	canon := func(c *Chart) []ChartBar {
		bars := append([]ChartBar(nil), c.Bars...)
		sort.SliceStable(bars, func(i, j int) bool {
			if bars[i].Count != bars[j].Count {
				return bars[i].Count > bars[j].Count
			}
			if bars[i].LabelText != bars[j].LabelText {
				return bars[i].LabelText < bars[j].LabelText
			}
			return bars[i].Bar.Label.Value < bars[j].Bar.Label.Value
		})
		return bars
	}
	g, w := canon(got), canon(want)
	for i := range g {
		gb, wb := g[i], w[i]
		if gb.Bar.Label != wb.Bar.Label || gb.LabelText != wb.LabelText || gb.Count != wb.Count ||
			gb.Coverage != wb.Coverage || gb.Triples != wb.Triples || gb.Bar.Type != wb.Bar.Type {
			t.Fatalf("%s: bar %d = {%v %q n=%d cov=%v tr=%d}, oracle {%v %q n=%d cov=%v tr=%d}", what, i,
				gb.Bar.Label, gb.LabelText, gb.Count, gb.Coverage, gb.Triples,
				wb.Bar.Label, wb.LabelText, wb.Count, wb.Coverage, wb.Triples)
		}
		if set := gb.Bar.Set(); !slices.Equal(set, wb.Bar.Set()) {
			t.Fatalf("%s: bar %v members %v, oracle %v", what, gb.Bar.Label, set, wb.Bar.Set())
		} else if len(set) != gb.Count || gb.Bar.Len() != gb.Count {
			t.Fatalf("%s: bar %v has %d members, Len %d, count %d", what, gb.Bar.Label, len(set), gb.Bar.Len(), gb.Count)
		}
		if gs, ws := gb.Bar.SPARQL(), wb.Bar.SPARQL(); gs != ws {
			t.Fatalf("%s: bar %v SPARQL\n%s\noracle\n%s", what, gb.Bar.Label, gs, ws)
		}
	}
}

// TestFig4PathChartsEqualOracle walks the paper's Fig. 4 path — root →
// Agent → Person → Philosopher, each pane's subclass, property and
// incoming property charts, then the Connections tab on influencedBy —
// on the DBpedia-like generator and checks every chart against the
// oracle: on the clean base, and again under an overlay of inserts and
// deletes that touches the panes' members.
func TestFig4PathChartsEqualOracle(t *testing.T) {
	ds := datagen.Generate(datagen.DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExplorer(st)
	check := func(state string) {
		panes := []*Pane{e.OpenRootPane()}
		for _, c := range []string{"Agent", "Person", "Philosopher"} {
			panes = append(panes, e.OpenPane(datagen.Ont(c)))
		}
		for _, p := range panes {
			what := state + " " + p.Title
			assertSameChart(t, what+" subclass", p.SubclassChart(), oracleSubclassChart(e, p.bar))
			for _, incoming := range []bool{false, true} {
				got := p.PropertyChart(incoming, -1)
				assertSameChart(t, fmt.Sprintf("%s property incoming=%v", what, incoming), got, oraclePropertyChart(e, p.bar, incoming))
			}
		}
		phil := panes[len(panes)-1]
		for _, incoming := range []bool{false, true} {
			got, err := phil.ConnectionsChart(datagen.Ont("influencedBy"), incoming)
			want, werr := oracleConnectionsChart(phil, datagen.Ont("influencedBy"), incoming)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s connections incoming=%v: err %v, oracle err %v", state, incoming, err, werr)
			}
			if err != nil {
				if err.Error() != werr.Error() {
					t.Fatalf("%s connections: error %q, oracle %q", state, err, werr)
				}
				continue
			}
			assertSameChart(t, fmt.Sprintf("%s connections incoming=%v", state, incoming), got, want)
		}
		for _, prop := range []rdf.Term{datagen.Ont("noSuchProperty"), rdf.NewIRI("http://elinda.example/never-interned")} {
			_, err := phil.ConnectionsChart(prop, false)
			_, werr := oracleConnectionsChart(phil, prop, false)
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("%s connections on %v: error %v, oracle error %v", state, prop, err, werr)
			}
		}
	}
	check("clean")

	// An overlay, one Apply per op so it spans the sorted delta and the
	// tail: new properties on existing members, new members typed into
	// the path's classes, and deletes of base triples, a third of them
	// re-inserted later — every kind of touched node the kernel
	// special-cases.
	r := rand.New(rand.NewSource(5))
	phils := st.Snapshot().SubjectsOfType(mustID(t, st, datagen.Ont("Philosopher")))
	apply := func(ops ...rdf.TripleOp) {
		t.Helper()
		if _, err := st.Apply(store.DeltaOf(ops...)); err != nil {
			t.Fatal(err)
		}
	}
	var deleted []rdf.Triple
	for i := 0; i < 400; i++ {
		s := st.Dict().Term(phils[r.Intn(len(phils))])
		switch i % 4 {
		case 0:
			apply(rdf.Insert(rdf.Triple{S: s, P: datagen.Ont(fmt.Sprintf("overlayProp%d", r.Intn(5))), O: datagen.Res(fmt.Sprintf("x%d", r.Intn(50)))}))
		case 1:
			apply(rdf.Insert(rdf.Triple{S: datagen.Res(fmt.Sprintf("fan%d", r.Intn(20))), P: datagen.Ont("influencedBy"), O: s}))
		case 2:
			nu := datagen.Res(fmt.Sprintf("newPhil%d", i))
			apply(rdf.Insert(rdf.Triple{S: nu, P: rdf.TypeIRI, O: datagen.Ont("Philosopher")}),
				rdf.Insert(rdf.Triple{S: nu, P: rdf.TypeIRI, O: datagen.Ont("Person")}),
				rdf.Insert(rdf.Triple{S: nu, P: datagen.Ont("influencedBy"), O: s}))
		case 3:
			snap := st.Snapshot()
			snap.Match(mustID(t, st, s), rdf.NoID, rdf.NoID, func(tr rdf.EncodedTriple) bool {
				if tr.P == snap.TypeID() {
					return true
				}
				deleted = append(deleted, snap.Triple(tr))
				return false
			})
			if len(deleted) > 0 {
				apply(rdf.Delete(deleted[len(deleted)-1]))
			}
		}
	}
	for i := 0; i < len(deleted); i += 3 {
		apply(rdf.Insert(deleted[i]))
	}
	check("overlay")
}

func mustID(t *testing.T, st *store.Store, term rdf.Term) rdf.ID {
	t.Helper()
	id, ok := st.Dict().Lookup(term)
	if !ok {
		t.Fatalf("%v not interned", term)
	}
	return id
}

// TestBarSetsPinnedToChartSnapshot drives a store through the overlay
// states Apply leaves behind — clean base, tail only, sorted delta,
// tombstones, delete-then-reinsert — and counts the root, Person and
// Philosopher panes' subclass, property and incoming property charts in
// each, with the oracle's beside them. Every bar's set is read only after
// the next write has landed: it must still be the oracle's member list of
// the snapshot the chart was counted on.
func TestBarSetsPinnedToChartSnapshot(t *testing.T) {
	st, err := datagen.Generate(datagen.Config{Seed: 2, Persons: 300, PoliticianProps: 40, ErrorRate: 0.02}).NewStore()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExplorer(st)
	type counted struct {
		what      string
		got, want *Chart
	}
	var held []counted
	count := func(state string) {
		panes := []*Pane{e.OpenRootPane(), e.OpenPane(datagen.Ont("Person")), e.OpenPane(datagen.Ont("Philosopher"))}
		for _, p := range panes {
			what := state + " " + p.Title
			held = append(held, counted{what + " subclass", p.SubclassChart(), oracleSubclassChart(e, p.bar)})
			for _, incoming := range []bool{false, true} {
				held = append(held, counted{fmt.Sprintf("%s property incoming=%v", what, incoming),
					p.PropertyChart(incoming, -1), oraclePropertyChart(e, p.bar, incoming)})
			}
		}
	}
	verify := func() {
		t.Helper()
		for _, c := range held {
			assertSameChart(t, c.what, c.got, c.want)
		}
		held = nil
	}
	apply := func(ops ...rdf.TripleOp) {
		t.Helper()
		if _, err := st.Apply(store.DeltaOf(ops...)); err != nil {
			t.Fatal(err)
		}
	}
	phils := st.Snapshot().SubjectsOfType(mustID(t, st, datagen.Ont("Philosopher")))
	person := func(i int) rdf.Term { return st.Dict().Term(phils[i%len(phils)]) }

	count("clean")
	for i := 0; i < 5; i++ { // one op per Apply: the tail
		apply(rdf.Insert(rdf.Triple{S: person(i), P: datagen.Ont("overlayProp"), O: datagen.Res(fmt.Sprintf("x%d", i))}))
	}
	verify()
	count("tail")
	var bulk []rdf.TripleOp // more ops than the tail holds: the sorted delta
	for i := 0; i < 300; i++ {
		nu := datagen.Res(fmt.Sprintf("newPhil%d", i))
		bulk = append(bulk,
			rdf.Insert(rdf.Triple{S: nu, P: rdf.TypeIRI, O: datagen.Ont("Philosopher")}),
			rdf.Insert(rdf.Triple{S: nu, P: datagen.Ont("influencedBy"), O: person(i)}))
	}
	apply(bulk...)
	verify()
	count("delta")
	var deleted []rdf.TripleOp
	snap := st.Snapshot()
	for i := 0; i < len(phils)/2; i++ {
		snap.Match(phils[i], rdf.NoID, rdf.NoID, func(tr rdf.EncodedTriple) bool {
			deleted = append(deleted, rdf.Delete(snap.Triple(tr)))
			return i%2 == 0 // every triple of even members, types included
		})
	}
	apply(deleted...)
	verify()
	count("tombstones")
	var again []rdf.TripleOp
	for i := 0; i < len(deleted); i += 2 {
		again = append(again, rdf.Insert(deleted[i].Triple))
	}
	apply(again...)
	verify()
	count("delete then reinsert")
	verify()
}
