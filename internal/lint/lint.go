// Package lint implements eLinda's invariant-enforcing static analysis
// suite: six analyzers that mechanically guard the correctness rules the
// lock-free snapshot store, the ID-space executor, the parallel ingest
// pipeline and the crash-durability layer rely on. The rules are documented in README.md ("Correctness
// tooling"); each analyzer's Doc string states the invariant it enforces.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer / Pass / Diagnostic, fixture tests with // want
// comments) so the suite can be ported to a real multichecker wholesale
// if the x/tools dependency ever becomes available. It is self-contained
// on the standard library: packages are loaded with `go list -export`
// and type-checked with go/types against the build cache's export data,
// which needs no network and no third-party module.
//
// Findings can be suppressed one statement at a time with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: a bare ignore is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. It mirrors the x/tools
// analysis.Analyzer surface that this suite needs.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:ignore
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SnapshotBind,
		SliceEscape,
		CtxLoop,
		MapOrder,
		LockBalance,
		FsyncDiscipline,
	}
}

// ByName resolves an analyzer by name (nil when unknown).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers runs the given analyzers over the loaded packages and
// returns the surviving findings (suppressions applied), sorted by
// position. Analyzer errors abort the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		out = append(out, sup.malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !sup.covers(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// --- shared AST/type helpers used by the analyzers ---

// walkStack traverses every file, invoking fn with each node and the
// stack of its ancestors (outermost first, not including n itself).
// Returning false skips the node's children.
func walkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			ok := fn(n, stack)
			stack = append(stack, n)
			if !ok {
				// Children are skipped; pop immediately since Inspect
				// will not deliver the matching nil.
				stack = stack[:len(stack)-1]
			}
			return ok
		})
	}
}

// namedType resolves t (through pointers and aliases) to its named type,
// or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t is (a pointer to) the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// methodCall decomposes a call of the form x.M(...) into its receiver
// expression and method name; ok is false for any other call shape.
func methodCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// exprString renders a (small) expression as a stable key, e.g.
// "s.shards[i].mu". Unrenderable shapes collapse to "".
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "[" + exprString(x.Index) + "]"
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		// Calls are not stable keys; give up on the whole chain.
		return ""
	default:
		return ""
	}
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (nil when the chain does not start at an identifier).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcScopes returns every function body in the files with its
// describing node: FuncDecls and top-level FuncLits (those not nested
// inside another function, e.g. package-var initializers).
type funcScope struct {
	decl *ast.FuncDecl // nil for a bare FuncLit
	body *ast.BlockStmt
	name string
}

func funcScopes(files []*ast.File) []funcScope {
	var out []funcScope
	for _, f := range files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if decl.Body != nil {
					out = append(out, funcScope{decl: decl, body: decl.Body, name: decl.Name.Name})
				}
			case *ast.GenDecl:
				ast.Inspect(decl, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, funcScope{body: lit.Body, name: "func literal"})
						return false
					}
					return true
				})
			}
		}
	}
	return out
}
