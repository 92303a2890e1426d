package core

import (
	"fmt"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// tpVar builds the pattern {?anchor <prop> ?v}.
func tpVar(anchor string, prop rdf.Term, v string) sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.V(anchor), P: sparql.T(prop), O: sparql.V(v)}
}

// eqExpr builds FILTER (?v = value).
func eqExpr(v string, value rdf.Term) sparql.Expr {
	return &sparql.BinaryExpr{
		Op:    "=",
		Left:  &sparql.VarExpr{Name: v},
		Right: &sparql.ConstExpr{Term: value},
	}
}

// containsExpr builds FILTER (CONTAINS(STR(?v), needle)).
func containsExpr(v, needle string) sparql.Expr {
	return &sparql.FuncExpr{Name: "CONTAINS", Args: []sparql.Expr{
		&sparql.FuncExpr{Name: "STR", Args: []sparql.Expr{&sparql.VarExpr{Name: v}}},
		&sparql.ConstExpr{Term: rdf.NewLiteral(needle)},
	}}
}

// PropertyExpansionSPARQL renders the paper's Section 4 query for the
// property expansion of a class in the given direction — the exact query
// eLinda sends to the endpoint, and the shape the decomposer detects.
func PropertyExpansionSPARQL(class rdf.Term, incoming bool) string {
	propTriple := "?s ?p ?o."
	if incoming {
		propTriple = "?o ?p ?s."
	}
	return fmt.Sprintf(`SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a %s. %s}
GROUP BY ?s ?p} GROUP BY ?p`, class.String(), propTriple)
}

// SubclassChartSPARQL renders the query computing a subclass chart: the
// per-subclass instance counts within the instances of class.
func SubclassChartSPARQL(class rdf.Term) string {
	q := &sparql.Query{
		Items: []sparql.SelectItem{
			{Var: "c"},
			{Var: "n", Expr: &sparql.AggExpr{Op: "COUNT", Distinct: true, Arg: &sparql.VarExpr{Name: "s"}}},
		},
		Where: &sparql.GroupPattern{Triples: []sparql.TriplePattern{
			{S: sparql.V("c"), P: sparql.T(rdf.SubClassOfIRI), O: sparql.T(class)},
			{S: sparql.V("s"), P: sparql.T(rdf.TypeIRI), O: sparql.T(class)},
			{S: sparql.V("s"), P: sparql.T(rdf.TypeIRI), O: sparql.V("c")},
		}},
		GroupBy: []string{"c"},
		OrderBy: []sparql.OrderKey{{Expr: &sparql.VarExpr{Name: "n"}, Desc: true}},
		Limit:   -1,
	}
	return q.String()
}

// ObjectExpansionSPARQL renders the query computing an object chart: the
// classes of objects connected to instances of class via prop.
func ObjectExpansionSPARQL(class, prop rdf.Term, incoming bool) string {
	link := sparql.TriplePattern{S: sparql.V("s"), P: sparql.T(prop), O: sparql.V("o")}
	if incoming {
		link = sparql.TriplePattern{S: sparql.V("o"), P: sparql.T(prop), O: sparql.V("s")}
	}
	q := &sparql.Query{
		Items: []sparql.SelectItem{
			{Var: "t"},
			{Var: "n", Expr: &sparql.AggExpr{Op: "COUNT", Distinct: true, Arg: &sparql.VarExpr{Name: "o"}}},
		},
		Where: &sparql.GroupPattern{Triples: []sparql.TriplePattern{
			{S: sparql.V("s"), P: sparql.T(rdf.TypeIRI), O: sparql.T(class)},
			link,
			{S: sparql.V("o"), P: sparql.T(rdf.TypeIRI), O: sparql.V("t")},
		}},
		GroupBy: []string{"t"},
		OrderBy: []sparql.OrderKey{{Expr: &sparql.VarExpr{Name: "n"}, Desc: true}},
		Limit:   -1,
	}
	return q.String()
}

// DatasetStatsSPARQL returns the queries behind the "very first queries"
// of Section 3.1: total triple count and class count.
func DatasetStatsSPARQL() (triples, classes string) {
	triples = `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }`
	classes = `SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { { ?c a owl:Class . } UNION { ?c a rdfs:Class . } }`
	return triples, classes
}
