// Package core implements eLinda's formal model (Section 2) and the
// interaction logic behind its user interface (Section 3): bars, bar
// charts, the three bar expansions (subclass, property, object — each with
// incoming variants), the filter operation, exploration paths, panes with
// their statistics and data tables, and automatic SPARQL generation for
// every bar along an exploration.
package core

import (
	"fmt"
	"sort"
	"sync"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// BarType is the type t of a bar ⟨S, λ, t⟩: class or property.
type BarType uint8

const (
	// ClassBar represents URIs associated with some type.
	ClassBar BarType = iota
	// PropertyBar represents URIs associated with some property.
	PropertyBar
)

// String names the bar type as in the paper.
func (t BarType) String() string {
	if t == PropertyBar {
		return "property"
	}
	return "class"
}

// Bar is the paper's B = ⟨S, λ, t⟩: a set S of URIs, a label λ, and a type
// t. Each bar additionally carries the query pattern that defines its set,
// so eLinda can "generate SPARQL code to extract each of the bars along
// the exploration".
//
// A chart is a histogram of counts; a bar's set matters only once the bar
// is expanded or opened. So the bars of subclass and property charts know
// |S| from the chart's count and build S on first read, from the store
// snapshot the chart was counted on — a write landing in between does not
// change it. Class bars (an index view), filtered bars and the bars of a
// direct object expansion (whose one pass produces every list) hold S from
// the start. A chart's bars build their SPARQL pattern on first read too.
type Bar struct {
	// Label is λ.
	Label rdf.Term
	// Type is t.
	Type BarType

	// pattern defines the set as a SPARQL pattern over variable anchor;
	// read it through pat, which builds a chart bar's from its parent's,
	// base, plus the type Label or the property Label (incoming or not).
	pattern  *patternBuilder
	base     *patternBuilder
	incoming bool
	patOnce  sync.Once

	n     int // |S|
	once  sync.Once
	build func() []rdf.ID // S, for a bar built on first read
	set   []rdf.ID
}

// newBar returns a bar holding its set.
func newBar(set []rdf.ID, label rdf.Term, typ BarType, pattern *patternBuilder) *Bar {
	return &Bar{Label: label, Type: typ, pattern: pattern, n: len(set), set: set}
}

// lazyBar returns a bar of n members whose set build returns on first
// read; build must read a fixed snapshot and return exactly n members.
func lazyBar(n int, build func() []rdf.ID, label rdf.Term, typ BarType, base *patternBuilder, incoming bool) *Bar {
	return &Bar{Label: label, Type: typ, base: base, incoming: incoming, n: n, build: build}
}

// pat returns the bar's pattern, built on the first call; it is safe for
// concurrent use.
func (b *Bar) pat() *patternBuilder {
	b.patOnce.Do(func() {
		switch {
		case b.base == nil:
		case b.Type == PropertyBar:
			b.pattern = b.base.withProperty(b.Label, b.incoming)
		default:
			b.pattern = b.base.withType(b.Label)
		}
		b.base = nil
	})
	return b.pattern
}

// Set returns S, the URIs represented by the bar (dictionary-encoded). It
// is built once, on the first call, and is safe for concurrent use.
func (b *Bar) Set() []rdf.ID {
	b.once.Do(func() {
		if b.build != nil {
			b.set, b.build = b.build(), nil
		}
	})
	return b.set
}

// Len returns |S| without building S.
func (b *Bar) Len() int { return b.n }

// SPARQL returns a SELECT query extracting the bar's URI set.
func (b *Bar) SPARQL() string {
	if b.pat() == nil {
		return ""
	}
	return b.pattern.selectQuery().String()
}

// ExpansionKind identifies the η applied at an exploration step.
type ExpansionKind uint8

const (
	// SubclassExpansion distributes S over the direct subclasses of λ.
	SubclassExpansion ExpansionKind = iota
	// PropertyExpansion distributes S over its outgoing properties.
	PropertyExpansion
	// IncomingPropertyExpansion distributes S over its ingoing properties.
	IncomingPropertyExpansion
	// ObjectExpansion distributes the objects reached from S via λ over
	// their classes.
	ObjectExpansion
	// IncomingObjectExpansion distributes the subjects reaching S via λ
	// over their classes.
	IncomingObjectExpansion
	// FilterExpansion narrows S by a condition without changing labels.
	FilterExpansion
)

// String names the expansion.
func (k ExpansionKind) String() string {
	switch k {
	case SubclassExpansion:
		return "subclass"
	case PropertyExpansion:
		return "property"
	case IncomingPropertyExpansion:
		return "property-in"
	case ObjectExpansion:
		return "object"
	case IncomingObjectExpansion:
		return "object-in"
	case FilterExpansion:
		return "filter"
	default:
		return fmt.Sprintf("ExpansionKind(%d)", uint8(k))
	}
}

// ChartBar is one rendered bar of a chart: the underlying Bar plus its
// display statistics.
type ChartBar struct {
	// Bar is the underlying ⟨S, λ, t⟩.
	Bar *Bar
	// LabelText is the display label (rdfs:label or IRI local name).
	LabelText string
	// Count is |S| — bar height is proportional to it.
	Count int
	// Coverage is Count as a fraction of the source set (property charts).
	Coverage float64
	// Triples is the total matching triple count (property charts; the
	// SUM(?sp) of the paper's decomposer query).
	Triples int
}

// Chart is the paper's B: a finite label set mapped to bars, here held
// sorted by decreasing count ("bars are sorted by decreasing height").
type Chart struct {
	// Kind is the expansion that produced the chart.
	Kind ExpansionKind
	// SourceLabel is the label of the expanded bar.
	SourceLabel rdf.Term
	// SourceSize is |S| of the expanded bar (the coverage denominator).
	SourceSize int
	// Bars is the sorted bar list.
	Bars []ChartBar
}

// Labels returns labels(B) in display order.
func (c *Chart) Labels() []rdf.Term {
	out := make([]rdf.Term, len(c.Bars))
	for i, b := range c.Bars {
		out[i] = b.Bar.Label
	}
	return out
}

// Bar returns B[λ], the bar with the given label.
func (c *Chart) Bar(label rdf.Term) (*ChartBar, bool) {
	for i := range c.Bars {
		if c.Bars[i].Bar.Label == label {
			return &c.Bars[i], true
		}
	}
	return nil, false
}

// BarByText returns the first bar whose display label matches.
func (c *Chart) BarByText(label string) (*ChartBar, bool) {
	for i := range c.Bars {
		if c.Bars[i].LabelText == label {
			return &c.Bars[i], true
		}
	}
	return nil, false
}

// Threshold returns a copy of the chart keeping only bars with coverage at
// or above the given fraction — the property-chart coverage filter
// ("filtering out properties with a coverage lower than a threshold").
func (c *Chart) Threshold(minCoverage float64) *Chart {
	out := &Chart{Kind: c.Kind, SourceLabel: c.SourceLabel, SourceSize: c.SourceSize}
	for _, b := range c.Bars {
		if b.Coverage >= minCoverage {
			out.Bars = append(out.Bars, b)
		}
	}
	return out
}

// Top returns a copy keeping only the first n bars (the visible window
// controlled by the widget at the top of the chart).
func (c *Chart) Top(n int) *Chart {
	out := &Chart{Kind: c.Kind, SourceLabel: c.SourceLabel, SourceSize: c.SourceSize}
	if n > len(c.Bars) {
		n = len(c.Bars)
	}
	out.Bars = append(out.Bars, c.Bars[:n]...)
	return out
}

// sortBars orders bars by decreasing count, breaking ties by label text
// for deterministic output.
func sortBars(bars []ChartBar) {
	sort.Slice(bars, func(i, j int) bool {
		if bars[i].Count != bars[j].Count {
			return bars[i].Count > bars[j].Count
		}
		return bars[i].LabelText < bars[j].LabelText
	})
}

// --- SPARQL pattern builder ---

// patternBuilder composes the graph pattern that defines a bar's set. The
// anchor variable is the one whose bindings form the set; expansions that
// hop to objects introduce a fresh anchor.
type patternBuilder struct {
	triples []sparql.TriplePattern
	filters []sparql.Expr
	anchor  string
	fresh   int
}

func newPatternBuilder() *patternBuilder {
	return &patternBuilder{anchor: "s"}
}

// clone deep-copies the builder.
func (p *patternBuilder) clone() *patternBuilder {
	out := &patternBuilder{anchor: p.anchor, fresh: p.fresh}
	out.triples = append([]sparql.TriplePattern(nil), p.triples...)
	out.filters = append([]sparql.Expr(nil), p.filters...)
	return out
}

func (p *patternBuilder) freshVar(prefix string) string {
	p.fresh++
	return fmt.Sprintf("%s%d", prefix, p.fresh)
}

// withType adds {?anchor a <class>}.
func (p *patternBuilder) withType(class rdf.Term) *patternBuilder {
	out := p.clone()
	out.triples = append(out.triples, sparql.TriplePattern{
		S: sparql.V(out.anchor), P: sparql.T(rdf.TypeIRI), O: sparql.T(class),
	})
	return out
}

// withProperty adds {?anchor <p> ?fresh} (outgoing) or {?fresh <p> ?anchor}
// (incoming) without moving the anchor.
func (p *patternBuilder) withProperty(prop rdf.Term, incoming bool) *patternBuilder {
	out := p.clone()
	v := out.freshVar("o")
	tp := sparql.TriplePattern{S: sparql.V(out.anchor), P: sparql.T(prop), O: sparql.V(v)}
	if incoming {
		tp = sparql.TriplePattern{S: sparql.V(v), P: sparql.T(prop), O: sparql.V(out.anchor)}
	}
	out.triples = append(out.triples, tp)
	return out
}

// hopObject moves the anchor across the property to the connected node.
// When the pattern already ends with the matching property triple (a
// property-expansion bar being object-expanded), the anchor just moves to
// that triple's far end instead of adding a redundant pattern.
func (p *patternBuilder) hopObject(prop rdf.Term, incoming bool) *patternBuilder {
	out := p.clone()
	if n := len(out.triples); n > 0 {
		last := out.triples[n-1]
		if !last.P.IsVar && last.P.Term == prop {
			if !incoming && last.S.IsVar && last.S.Name == out.anchor && last.O.IsVar {
				out.anchor = last.O.Name
				return out
			}
			if incoming && last.O.IsVar && last.O.Name == out.anchor && last.S.IsVar {
				out.anchor = last.S.Name
				return out
			}
		}
	}
	v := out.freshVar("o")
	tp := sparql.TriplePattern{S: sparql.V(out.anchor), P: sparql.T(prop), O: sparql.V(v)}
	if incoming {
		tp = sparql.TriplePattern{S: sparql.V(v), P: sparql.T(prop), O: sparql.V(out.anchor)}
	}
	out.triples = append(out.triples, tp)
	out.anchor = v
	return out
}

// withFilter adds a FILTER on the anchor variable produced by cond.
func (p *patternBuilder) withFilter(cond func(anchorVar string) sparql.Expr) *patternBuilder {
	out := p.clone()
	out.filters = append(out.filters, cond(out.anchor))
	return out
}

// selectQuery renders SELECT DISTINCT ?anchor WHERE {...}.
func (p *patternBuilder) selectQuery() *sparql.Query {
	return &sparql.Query{
		Distinct: true,
		Items:    []sparql.SelectItem{{Var: p.anchor}},
		Where:    &sparql.GroupPattern{Triples: p.triples, Filters: p.filters},
		Limit:    -1,
	}
}
