package lint

import (
	"go/ast"
)

// ctxparam enforces the standard context discipline the pipeline's
// cancellation semantics depend on: a context.Context is passed down
// call chains as the first parameter, never parked in a struct field
// where it outlives the request that created it. The one blessed
// exception — a request object that *is* the unit of per-request state,
// like pipeReq — opts out with //bomw:ctxparam and a justification.
var analyzerCtxparam = &Analyzer{
	Name: "ctxparam",
	Doc: "no context.Context in struct fields; where a function takes a ctx it must be\n" +
		"the first parameter",
	Run: runCtxparam,
}

func runCtxparam(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ctxName, ok := importName(f.AST, "context")
		if !ok {
			continue
		}
		isCtxType := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Context" {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == ctxName && identIsPackage(pass, id)
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					if !isCtxType(field.Type) {
						continue
					}
					name := "embedded field"
					if len(field.Names) > 0 {
						name = "field " + field.Names[0].Name
					}
					pass.Reportf(field.Pos(),
						"context.Context stored in struct %s: contexts are call-scoped — pass ctx as the first parameter (request carriers may opt out with //bomw:ctxparam <why>)",
						name)
				}
			case *ast.FuncType:
				if x.Params == nil {
					return true
				}
				pos := 0
				for _, field := range x.Params.List {
					n := len(field.Names)
					if n == 0 {
						n = 1
					}
					if isCtxType(field.Type) && pos != 0 {
						pass.Reportf(field.Pos(),
							"context.Context is not the first parameter: ctx leads the signature by convention, so call sites and wrappers stay uniform")
					}
					pos += n
				}
			}
			return true
		})
	}
	return nil
}
