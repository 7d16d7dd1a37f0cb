package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxGoroutine enforces goroutine hygiene at `go` statements:
//
//  1. a goroutine's function literal must not capture an enclosing
//     loop's iteration variable — even with per-iteration loop
//     variables (go >= 1.22) the capture hides the dataflow; pass the
//     value as an argument instead; and
//  2. the launching function must contain a visible join — a
//     WaitGroup-style Wait call, a channel receive, a select, or a
//     range over a channel — so goroutines cannot silently outlive the
//     work that spawned them (pool.Map in internal/pool is the
//     reference shape).
var CtxGoroutine = &Analyzer{
	Name: "ctxgoroutine",
	Doc:  "flags goroutines that capture loop variables or lack a visible join",
	Run:  runCtxGoroutine,
}

func runCtxGoroutine(pass *Pass) {
	for _, f := range pass.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, parents, g)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, parents map[ast.Node]ast.Node, g *ast.GoStmt) {
	// Collect loop variables of loops between the go statement and its
	// enclosing function, and find that function's body.
	loopVars := map[types.Object]bool{}
	var body *ast.BlockStmt
	for n := parents[ast.Node(g)]; n != nil; n = parents[n] {
		switch s := n.(type) {
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						loopVars[obj] = true
					}
				}
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							loopVars[obj] = true
						}
					}
				}
			}
		case *ast.FuncDecl:
			body = s.Body
		case *ast.FuncLit:
			body = s.Body
		}
		if body != nil {
			break
		}
	}

	// Rule 1: loop-variable capture inside the goroutine's closure.
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && len(loopVars) > 0 {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.Info.Uses[id]; obj != nil && loopVars[obj] {
				pass.Reportf(id.Pos(), "goroutine captures loop variable %s; pass it as an argument", id.Name)
				loopVars[obj] = false // one report per variable
			}
			return true
		})
	}

	// Rule 2: the launching function needs a visible join.
	if body != nil && !hasJoin(pass, body) {
		pass.Reportf(g.Pos(), "goroutine has no visible join (WaitGroup Wait, channel receive, or select) in the enclosing function")
	}
}

// hasJoin reports whether body contains a join construct, ignoring the
// bodies of launched goroutines themselves (a receive inside the
// spawned closure does not join it from the launcher's side).
func hasJoin(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.SelectStmt:
			found = true
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
