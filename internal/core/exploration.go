package core

import (
	"fmt"
	"strings"

	"elinda/internal/rdf"
)

// Step records one exploration step (λi, ηi) ↦ Bi.
type Step struct {
	// Label is λi, the label of the bar selected from the previous chart.
	Label rdf.Term
	// Kind is ηi, the expansion applied.
	Kind ExpansionKind
	// Chart is Bi = ηi(Bi−1[λi]).
	Chart *Chart
}

// Exploration is the paper's sequence (λ1, η1) ↦ B1, ..., (λm, ηm) ↦ Bm
// over a predefined initial chart B0. It also maintains the breadcrumb
// trail shown above each pane (Figure 2).
type Exploration struct {
	expl    *Explorer
	initial *Chart
	steps   []Step
}

// StartExploration builds B0: the subclass expansion of the root bar
// ("η(B) where η is the subclass expansion and B = ⟨S, τ, class⟩ with τ
// being a predefined type ... a sensible choice of τ is owl:Thing").
func (e *Explorer) StartExploration() *Exploration {
	return &Exploration{expl: e, initial: e.subclassExpansion(e.RootBar())}
}

// StartExplorationAt begins from an arbitrary class — what the
// autocomplete search box does ("Selecting a class that way immediately
// opens the associated pane without the need to drill down").
func (e *Explorer) StartExplorationAt(class rdf.Term) *Exploration {
	return &Exploration{expl: e, initial: e.subclassExpansion(e.ClassBar(class))}
}

// Initial returns B0.
func (x *Exploration) Initial() *Chart { return x.initial }

// Current returns the most recent chart (B0 when no steps were taken).
func (x *Exploration) Current() *Chart {
	if len(x.steps) == 0 {
		return x.initial
	}
	return x.steps[len(x.steps)-1].Chart
}

// Steps returns the recorded steps.
func (x *Exploration) Steps() []Step { return x.steps }

// Expand performs one step: select the bar labeled λ from the current
// chart and apply the expansion. The paper's applicability conditions are
// enforced: (a) λ ∈ labels(Bi−1); (b) ηi is applicable to Bi−1[λi].
func (x *Exploration) Expand(label rdf.Term, kind ExpansionKind) (*Chart, error) {
	cur := x.Current()
	bar, ok := cur.Bar(label)
	if !ok {
		return nil, fmt.Errorf("core: label %s not in current chart", label)
	}
	chart, err := x.expl.Expand(bar.Bar, kind)
	if err != nil {
		return nil, err
	}
	x.steps = append(x.steps, Step{Label: label, Kind: kind, Chart: chart})
	return chart, nil
}

// ExpandByText is Expand using the display label.
func (x *Exploration) ExpandByText(label string, kind ExpansionKind) (*Chart, error) {
	cur := x.Current()
	bar, ok := cur.BarByText(label)
	if !ok {
		return nil, fmt.Errorf("core: label %q not in current chart", label)
	}
	return x.Expand(bar.Bar.Label, kind)
}

// Back undoes the last step. It reports whether a step was removed.
func (x *Exploration) Back() bool {
	if len(x.steps) == 0 {
		return false
	}
	x.steps = x.steps[:len(x.steps)-1]
	return true
}

// Breadcrumbs renders the colored breadcrumb trail of Figure 2 as text:
// the labels selected along the path.
func (x *Exploration) Breadcrumbs() string {
	snap := x.expl.st.Snapshot()
	root := "All instances"
	if !x.initial.SourceLabel.IsZero() {
		root = x.expl.label(snap, x.initial.SourceLabel)
	}
	parts := []string{root}
	for _, s := range x.steps {
		parts = append(parts, x.expl.label(snap, s.Label))
	}
	return strings.Join(parts, " → ")
}

// BarSPARQL returns the generated SPARQL for the bar labeled λ in the
// current chart — the per-bar query-generation feature of Section 2.
func (x *Exploration) BarSPARQL(label rdf.Term) (string, error) {
	bar, ok := x.Current().Bar(label)
	if !ok {
		return "", fmt.Errorf("core: label %s not in current chart", label)
	}
	return bar.Bar.SPARQL(), nil
}
