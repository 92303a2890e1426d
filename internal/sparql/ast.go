package sparql

import (
	"fmt"
	"sort"
	"strings"

	"elinda/internal/rdf"
)

// Query is the parsed form of a SELECT (or ASK) query.
type Query struct {
	// Prefixes maps declared prefix names to namespaces.
	Prefixes map[string]string
	// Ask is true for ASK queries (SELECT fields then unused).
	Ask bool
	// Distinct applies DISTINCT to the projected solutions.
	Distinct bool
	// Star is true for SELECT *.
	Star bool
	// Items are the projection items for non-star selects.
	Items []SelectItem
	// Where is the root group graph pattern.
	Where *GroupPattern
	// GroupBy lists grouping variables (empty = implicit single group when
	// aggregates are present, else no grouping).
	GroupBy []string
	// Having holds HAVING constraints evaluated over grouped solutions.
	Having []Expr
	// OrderBy lists sort keys applied after projection.
	OrderBy []OrderKey
	// Limit is the maximum number of solutions (-1 = unlimited).
	Limit int
	// Offset is the number of solutions to skip.
	Offset int
}

// SelectItem is one projection item: a plain variable or (expr AS ?v).
type SelectItem struct {
	// Var is the output name (without '?').
	Var string
	// Expr is nil for plain variable projection.
	Expr Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// GroupPattern is a SPARQL group graph pattern: a conjunction of triple
// patterns, nested subselects, OPTIONAL groups and FILTER constraints.
type GroupPattern struct {
	Triples    []TriplePattern
	Filters    []Expr
	SubSelects []*Query
	Optionals  []*GroupPattern
	// Unions holds alternative group patterns; solutions are the union of
	// evaluating each branch (used by incoming+outgoing combined charts).
	Unions [][]*GroupPattern
	// Values holds inline data blocks (the VALUES clause).
	Values []*ValuesBlock
}

// ValuesBlock is an inline data table: VALUES (?a ?b) { (<x> <y>) ... }.
// Rows may contain zero-value terms for UNDEF entries.
type ValuesBlock struct {
	Vars []string
	Rows [][]rdf.Term
}

// TriplePattern is a triple with variables allowed in any position.
type TriplePattern struct {
	S, P, O TermOrVar
}

// TermOrVar is either a concrete RDF term or a variable.
type TermOrVar struct {
	IsVar bool
	Name  string   // variable name when IsVar
	Term  rdf.Term // concrete term otherwise
}

// V makes a variable TermOrVar.
func V(name string) TermOrVar { return TermOrVar{IsVar: true, Name: name} }

// T makes a concrete TermOrVar.
func T(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

func (tv TermOrVar) String() string {
	if tv.IsVar {
		return "?" + tv.Name
	}
	return tv.Term.String()
}

// String renders the query back to executable SPARQL text. This is what
// the UI shows when the user asks for "the SPARQL query it was generated
// from" (Section 3.3).
func (q *Query) String() string {
	var b strings.Builder
	for _, pfx := range sortedKeys(q.Prefixes) {
		fmt.Fprintf(&b, "PREFIX %s: <%s>\n", pfx, q.Prefixes[pfx])
	}
	q.writeBody(&b, 0)
	return b.String()
}

func (q *Query) writeBody(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	if q.Ask {
		b.WriteString(ind + "ASK")
	} else {
		b.WriteString(ind + "SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if q.Star {
			b.WriteString("*")
		} else {
			for i, it := range q.Items {
				if i > 0 {
					b.WriteByte(' ')
				}
				if it.Expr != nil {
					fmt.Fprintf(b, "(%s AS ?%s)", it.Expr, it.Var)
				} else {
					b.WriteString("?" + it.Var)
				}
			}
		}
	}
	b.WriteString(" WHERE {\n")
	q.Where.write(b, depth+1)
	b.WriteString(ind + "}")
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, v := range q.GroupBy {
			b.WriteString(" ?" + v)
		}
	}
	for _, h := range q.Having {
		fmt.Fprintf(b, " HAVING (%s)", h)
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			_, isVar := k.Expr.(*VarExpr)
			switch {
			case k.Desc:
				fmt.Fprintf(b, " DESC(%s)", k.Expr)
			case isVar:
				fmt.Fprintf(b, " %s", k.Expr)
			default: // an ascending expression key needs its brackets
				fmt.Fprintf(b, " (%s)", k.Expr)
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(b, " OFFSET %d", q.Offset)
	}
	b.WriteByte('\n')
}

func (g *GroupPattern) write(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, tp := range g.Triples {
		fmt.Fprintf(b, "%s%s %s %s .\n", ind, tp.S, renderPred(tp.P), tp.O)
	}
	for _, sub := range g.SubSelects {
		b.WriteString(ind + "{\n")
		sub.writeBody(b, depth+1)
		b.WriteString(ind + "}\n")
	}
	for _, opt := range g.Optionals {
		b.WriteString(ind + "OPTIONAL {\n")
		opt.write(b, depth+1)
		b.WriteString(ind + "}\n")
	}
	for _, branches := range g.Unions {
		for i, br := range branches {
			if i > 0 {
				b.WriteString(ind + "UNION\n")
			}
			b.WriteString(ind + "{\n")
			br.write(b, depth+1)
			b.WriteString(ind + "}\n")
		}
	}
	for _, v := range g.Values {
		b.WriteString(ind + "VALUES (")
		for i, name := range v.Vars {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("?" + name)
		}
		b.WriteString(") {")
		for _, row := range v.Rows {
			b.WriteString(" (")
			for i, term := range row {
				if i > 0 {
					b.WriteByte(' ')
				}
				if term.IsZero() {
					b.WriteString("UNDEF")
				} else {
					b.WriteString(term.String())
				}
			}
			b.WriteString(")")
		}
		b.WriteString(" }\n")
	}
	for _, f := range g.Filters {
		fmt.Fprintf(b, "%sFILTER (%s)\n", ind, f)
	}
}

func renderPred(tv TermOrVar) string {
	if !tv.IsVar && tv.Term.Kind == rdf.IRI && tv.Term.Value == rdf.RDFType {
		return "a"
	}
	return tv.String()
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Variables returns every variable mentioned in the group's triples,
// subselect projections, optionals and unions (not filters).
func (g *GroupPattern) Variables() []string {
	seen := map[string]struct{}{}
	var out []string
	add := func(tv TermOrVar) {
		if tv.IsVar {
			if _, dup := seen[tv.Name]; !dup {
				seen[tv.Name] = struct{}{}
				out = append(out, tv.Name)
			}
		}
	}
	for _, tp := range g.Triples {
		add(tp.S)
		add(tp.P)
		add(tp.O)
	}
	for _, sub := range g.SubSelects {
		for _, it := range sub.Items {
			add(TermOrVar{IsVar: true, Name: it.Var})
		}
	}
	for _, opt := range g.Optionals {
		for _, v := range opt.Variables() {
			add(TermOrVar{IsVar: true, Name: v})
		}
	}
	for _, branches := range g.Unions {
		for _, br := range branches {
			for _, v := range br.Variables() {
				add(TermOrVar{IsVar: true, Name: v})
			}
		}
	}
	return out
}

// HasAggregates reports whether any projection item uses an aggregate.
func (q *Query) HasAggregates() bool {
	for _, it := range q.Items {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return len(q.Having) > 0
}
