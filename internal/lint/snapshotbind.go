package lint

import (
	"go/ast"
)

// SnapshotBind enforces the one-snapshot-per-query invariant introduced
// with the generation-tagged store (PR 3): a query, a chart evaluation or
// an index build must atomically bind *store.Snapshot once and do every
// read through it. Two findings:
//
//  1. Query-scope packages (the executor, the decomposer, the
//     incremental evaluator, the explorer) calling a read method directly on
//     *store.Store. Each such call re-loads the current snapshot, so two
//     calls may observe different generations mid-query — exactly the
//     torn read the snapshot design exists to rule out.
//  2. Any function in those packages taking Store.Snapshot() more than
//     once. One scope, one snapshot; a second bind reintroduces the
//     cross-generation window with extra steps.
var SnapshotBind = &Analyzer{
	Name: "snapshotbind",
	Doc:  "query-scope code must read through one bound *store.Snapshot, never directly off *store.Store",
	Run:  runSnapshotBind,
}

const storePkgPath = "elinda/internal/store"

// snapshotBindScope lists the query-scope packages the invariant covers:
// the executor, the decomposer, the incremental evaluator, the explorer,
// whose charts read many labels and index groups per request, and the
// ontology, whose label sorts compare many classes. The store package
// itself is exempt (its few Store read wrappers each serve one read for
// the server, the CLI or the benchmark), as is serving-tier glue that
// never spans more than one read per request.
var snapshotBindScope = map[string]bool{
	"elinda/internal/sparql":      true,
	"elinda/internal/decomposer":  true,
	"elinda/internal/incremental": true,
	"elinda/internal/core":        true,
	"elinda/internal/ontology":    true,
}

// storeReadMethods are the *store.Store methods that internally bind a
// fresh snapshot per call.
var storeReadMethods = map[string]bool{
	"Len": true, "Label": true, "SearchClasses": true, "ComputeStats": true,
}

func runSnapshotBind(pass *Pass) error {
	if !snapshotBindScope[pass.Pkg.Path()] {
		return nil
	}
	for _, fn := range funcScopes(pass.Files) {
		snapshotCalls := 0
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := methodCall(call)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(recv)
			if t == nil || !isNamed(t, storePkgPath, "Store") {
				return true
			}
			switch {
			case storeReadMethods[name]:
				pass.Reportf(call.Pos(),
					"direct (*store.Store).%s read in query-scope code: bind s.Snapshot() once and read through it, or two reads may observe different generations", name)
			case name == "Snapshot":
				snapshotCalls++
				if snapshotCalls > 1 {
					pass.Reportf(call.Pos(),
						"Store.Snapshot() bound more than once in %s: one query scope must bind exactly one snapshot", fn.name)
				}
			}
			return true
		})
	}
	return nil
}
