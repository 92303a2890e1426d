package lint

import (
	"go/ast"
	"go/types"
)

// SliceEscape guards the zero-copy read contract of the columnar
// snapshot store: Postings/Objects/Subjects/SubjectsOfType/PredicatesOf
// return sub-slices of the snapshot's index arrays. Holding such a slice
// is safe only for as long as the snapshot itself is held — parking it in
// longer-lived storage (a struct field, a package variable, a channel, a
// composite literal, a map or slice element) silently pins snapshot
// memory and, worse, decouples the data from the generation it belongs
// to. The sanctioned escape hatch is an explicit copy:
//
//	mine := append([]rdf.ID(nil), snap.Objects(s, p)...)
//
// The analyzer flags direct stores of a zero-copy result into any of
// those sinks. Indirect flows (assign to a local, then store the local)
// are out of reach of this pass — reviews still own those — but the
// direct store is by far the common shape.
var SliceEscape = &Analyzer{
	Name: "sliceescape",
	Doc:  "zero-copy snapshot slices must not be stored beyond the call frame; append/copy first",
	Run:  runSliceEscape,
}

// zeroCopyMethods return views into snapshot-owned arrays.
var zeroCopyMethods = map[string]bool{
	"Postings": true, "Objects": true, "Subjects": true,
	"SubjectsOfType": true, "PredicatesOf": true,
}

func runSliceEscape(pass *Pass) error {
	if pass.Pkg.Path() == storePkgPath {
		// The store implements the contract; its own internals legally
		// hand these slices around.
		return nil
	}
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := zeroCopyCall(pass, call)
		if !ok {
			return true
		}
		if sink := escapeSink(pass, call, stack); sink != "" {
			pass.Reportf(call.Pos(),
				"zero-copy result of %s stored in %s: the slice aliases snapshot index memory and must not outlive the snapshot; copy with append(nil-slice, ids...) first", name, sink)
		}
		return true
	})
	return nil
}

// zeroCopyCall reports whether call is a zero-copy read on a store
// Snapshot, returning a display name like "Snapshot.Objects".
func zeroCopyCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	recv, name, ok := methodCall(call)
	if !ok || !zeroCopyMethods[name] {
		return "", false
	}
	if t := pass.TypesInfo.TypeOf(recv); t == nil || !isNamed(t, storePkgPath, "Snapshot") {
		return "", false
	}
	return "Snapshot." + name, true
}

// escapeSink classifies the syntactic context of call; "" means the
// result stays within the call frame.
func escapeSink(pass *Pass, call *ast.CallExpr, stack []ast.Node) string {
	if len(stack) == 0 {
		return ""
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.AssignStmt:
		return assignSink(pass, p, call)
	case *ast.SendStmt:
		if p.Value == call {
			return "a channel send"
		}
	case *ast.CompositeLit:
		return "a composite literal"
	case *ast.KeyValueExpr:
		if p.Value == call && len(stack) >= 2 {
			if _, inLit := stack[len(stack)-2].(*ast.CompositeLit); inLit {
				return "a composite literal"
			}
		}
	case *ast.ValueSpec:
		// var x = call at package level.
		for i, v := range p.Values {
			if v == call && i < len(p.Names) {
				if obj := pass.TypesInfo.Defs[p.Names[i]]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
					return "package variable " + p.Names[i].Name
				}
			}
		}
	}
	return ""
}

// assignSink classifies the LHS an assigned zero-copy result lands in.
func assignSink(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr) string {
	// Map the call to its LHS expression(s). A single multi-result call
	// (Postings returns (ids, ok)) covers the whole LHS; otherwise the
	// positions line up one to one.
	var lhs []ast.Expr
	if len(as.Rhs) == 1 {
		lhs = as.Lhs[:1] // first result is the slice
	} else {
		for i, r := range as.Rhs {
			if r == call && i < len(as.Lhs) {
				lhs = as.Lhs[i : i+1]
			}
		}
	}
	for _, l := range lhs {
		switch target := l.(type) {
		case *ast.SelectorExpr:
			return "struct field " + exprString(target)
		case *ast.IndexExpr:
			return "element " + exprString(target)
		case *ast.Ident:
			if target.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(target)
			if obj != nil && obj.Parent() == pass.Pkg.Scope() {
				return "package variable " + target.Name
			}
		case *ast.StarExpr:
			if t := pass.TypesInfo.TypeOf(target.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return "pointer target " + exprString(target)
				}
			}
		}
	}
	return ""
}
