package sparql

import (
	"slices"

	"elinda/internal/rdf"
)

// Table is a query answer as ID rows, carried from the engine to the
// response encoders, which decode a term only as they append its bytes.
// It has a column per projected variable, then (TableOf only) one per
// name a row binds outside Vars. Columns sharing a name hold the same ID
// in every row: the name's last bound value, as a map per row keeps.
type Table struct {
	Vars    []string
	Ask     bool
	AskTrue bool

	cols  []string
	n     int
	ids   []rdf.ID   // n rows of len(cols) IDs; rdf.NoID is unbound
	terms []rdf.Term // terms[id-1]: the snapshot dictionary, or TableOf's copies
	over  []rdf.Term // over[id-overflowBase]: the execution's overflow terms
	res   *Result    // the Result TableOf made the table from
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Columns returns the column names: Vars, then TableOf's extra names.
func (t *Table) Columns() []string { return t.cols }

// Term returns the term in column col of row row; false when unbound.
func (t *Table) Term(row, col int) (rdf.Term, bool) {
	switch id := t.ids[row*len(t.cols)+col]; {
	case id == rdf.NoID:
		return rdf.Term{}, false
	case id >= overflowBase:
		return t.over[id-overflowBase], true
	default:
		return t.terms[id-1], true
	}
}

// Result returns the answer with one Solution map per row. A table made
// by TableOf returns the Result it was made from.
func (t *Table) Result() *Result {
	if t.res != nil {
		return t.res
	}
	if t.Ask {
		return &Result{Ask: true, AskTrue: t.AskTrue}
	}
	rows := make([]Solution, t.n)
	for i := range rows {
		sol := make(Solution, len(t.cols))
		for c, name := range t.cols {
			if term, ok := t.Term(i, c); ok {
				sol[name] = term
			}
		}
		rows[i] = sol
	}
	return &Result{Vars: t.Vars, Rows: rows}
}

// NewTable is an answer whose every row binds every one of vars (distinct
// names) as a table: cells holds the rows' terms row-major, len(vars) a
// row.
func NewTable(vars []string, cells []rdf.Term) *Table {
	ids := make([]rdf.ID, len(cells))
	for i := range ids {
		ids[i] = rdf.ID(i + 1)
	}
	t := &Table{Vars: vars, cols: vars, ids: ids, terms: cells}
	if len(vars) > 0 {
		t.n = len(cells) / len(vars)
	}
	return t
}

// TableOf is a materialised answer (a remote endpoint's, or a cache
// tier's) as a table: each bound term is copied into the table's own
// term list. A name a row binds outside res.Vars becomes an extra column.
func TableOf(res *Result) *Table {
	t := &Table{Vars: res.Vars, Ask: res.Ask, AskTrue: res.AskTrue, res: res, n: len(res.Rows)}
	if res.Ask {
		return t
	}
	t.cols = slices.Clip(res.Vars)
	if t.fill(res.Rows) {
		var extra []string
		for _, sol := range res.Rows {
			for name := range sol {
				if !slices.Contains(t.cols, name) && !slices.Contains(extra, name) {
					extra = append(extra, name)
				}
			}
		}
		slices.Sort(extra)
		t.cols = append(t.cols, extra...)
		t.fill(res.Rows)
	}
	return t
}

// fill copies the rows' terms into the columns; true if a row binds a name none has.
func (t *Table) fill(rows []Solution) (unplaced bool) {
	w := len(t.cols)
	t.ids = make([]rdf.ID, len(rows)*w)
	t.terms = make([]rdf.Term, 0, len(t.ids))
	for i, sol := range rows {
		placed := 0
		for c, name := range t.cols {
			if term, ok := sol[name]; ok {
				t.terms = append(t.terms, term)
				t.ids[i*w+c] = rdf.ID(len(t.terms))
				if slices.Index(t.cols, name) == c { // a shared name counts once
					placed++
				}
			}
		}
		unplaced = unplaced || placed < len(sol)
	}
	return unplaced
}

// lastBoundWins makes the columns that share a projected name hold, in
// every row, the name's last bound value: a forward pass carries it into
// the name's last column, a backward pass copies it back.
func lastBoundWins(rows *idRows, vars []string) {
	next := func(j int) int { return j + 1 + slices.Index(vars[j+1:], vars[j]) }
	for j := range vars {
		for i, k := 0, next(j); k != j && i < rows.n; i++ {
			if row := rows.row(i); row[k] == rdf.NoID {
				row[k] = row[j]
			}
		}
	}
	for j := len(vars) - 1; j >= 0; j-- {
		for i, k := 0, next(j); k != j && i < rows.n; i++ {
			row := rows.row(i)
			row[j] = row[k]
		}
	}
}
