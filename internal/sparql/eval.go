package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Solution is one variable binding row.
type Solution map[string]rdf.Term

// Result is the outcome of executing a query: the projected variable names
// in order and the solution rows. For ASK queries, Ask holds the answer
// and Rows is empty.
type Result struct {
	Vars    []string
	Rows    []Solution
	Ask     bool
	AskTrue bool
}

// Engine executes parsed queries against a store. This is the "Virtuoso
// SPARQL" path of Figure 3/4: correct on the whole subset, but — unlike
// the decomposer — it still evaluates the query's join structure, so heavy
// expansion queries pay for their intermediate results.
//
// Execution runs in ID space (see idexec.go): rows are compact []rdf.ID
// slot vectors flowing through a streaming pattern-join pipeline, and IDs
// decode to terms only at projection. The map-based evaluator this
// replaced is the differential-testing oracle in oracle_test.go.
type Engine struct {
	st *store.Store
}

// NewEngine returns an engine over st.
func NewEngine(st *store.Store) *Engine { return &Engine{st: st} }

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// Query parses and executes src.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, q)
}

func valueToTerm(v Value) (rdf.Term, bool) {
	switch v.Kind {
	case VTerm:
		return v.Term, true
	case VNum:
		s := trimFloat(v.Num)
		if strings.ContainsAny(s, ".eE") {
			return rdf.NewTypedLiteral(s, rdf.XSDDouble), true
		}
		return rdf.NewTypedLiteral(s, rdf.XSDInteger), true
	case VBool:
		if v.Bool {
			return rdf.NewTypedLiteral("true", rdf.XSDBoolean), true
		}
		return rdf.NewTypedLiteral("false", rdf.XSDBoolean), true
	case VStr:
		return rdf.NewLiteral(v.Str), true
	}
	return rdf.Term{}, false
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// cmpSolutionsOrder compares two solutions under the ORDER BY keys,
// returning -1/0/+1 with Desc already applied: the map form of the
// ordering orderSliceIDs applies to ID rows, through the same cmpOrderKey.
func cmpSolutionsOrder(a, b Solution, keys []OrderKey) int {
	for _, k := range keys {
		if c := cmpOrderKey(k.Expr.Eval(a), k.Expr.Eval(b), k.Desc); c != 0 {
			return c
		}
	}
	return 0
}

// cmpOrderKey compares two values of one ORDER BY key like
// cmpSolutionsOrder. Unbound sorts first; values compareValues cannot
// order compare equal.
func cmpOrderKey(vi, vj Value, desc bool) int {
	cmp, ok := compareValues(vi, vj)
	if !ok {
		switch {
		case vi.Kind == VUnbound && vj.Kind != VUnbound:
			cmp = -1
		case vi.Kind != VUnbound && vj.Kind == VUnbound:
			cmp = 1
		default:
			return 0
		}
	}
	if desc {
		return -cmp
	}
	return cmp
}

func sortRows(rows []Solution, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		return cmpSolutionsOrder(rows[i], rows[j], keys) < 0
	})
}
