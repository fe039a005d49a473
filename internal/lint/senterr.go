package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// senterr keeps the error-handling contract of the serving path intact:
// sentinel errors (ErrDeadlineInfeasible, ErrNoEligibleDevice,
// ErrAdmissionFull, ...) travel wrapped — `fmt.Errorf("%w: ...", Err...)`
// — so callers must compare with errors.Is; an == comparison silently
// stops matching the moment anyone adds context to the chain, and a
// sentinel formatted with %v/%s instead of %w breaks every errors.Is
// caller downstream (the HTTP status mapping, the pipeline's shed
// accounting).
var analyzerSenterr = &Analyzer{
	Name: "senterr",
	Doc: "sentinel errors (Err* variables) must be compared with errors.Is, never ==/!=,\n" +
		"and wrapped with %w when passed to fmt.Errorf",
	Run: runSenterr,
}

// sentinelRe matches the conventional exported/unexported sentinel
// names: Err followed by an upper-case letter (ErrFoo), or errFoo.
var sentinelRe = regexp.MustCompile(`^(Err|err)[A-Z]`)

func runSenterr(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		fmtName, hasFmt := importName(f.AST, "fmt")
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				if isNilIdent(x.X) || isNilIdent(x.Y) {
					return true // err != nil and friends are fine
				}
				for _, side := range []ast.Expr{x.X, x.Y} {
					if name, ok := sentinelName(side); ok {
						pass.Reportf(x.OpPos,
							"sentinel error %s compared with %s: use errors.Is so wrapped chains still match",
							name, x.Op)
						break
					}
				}
			case *ast.CallExpr:
				if !hasFmt {
					return true
				}
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Errorf" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != fmtName || !identIsPackage(pass, id) {
					return true
				}
				checkErrorfWrap(pass, x)
			}
			return true
		})
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// sentinelName reports whether the expression names a sentinel error
// variable (bare or package-qualified).
func sentinelName(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if sentinelRe.MatchString(x.Name) {
			return x.Name, true
		}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && sentinelRe.MatchString(x.Sel.Name) {
			return id.Name + "." + x.Sel.Name, true
		}
	}
	return "", false
}

// checkErrorfWrap flags fmt.Errorf calls that pass a sentinel error
// argument without a %w verb in the format string.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if name, ok := sentinelName(arg); ok {
			pass.Reportf(arg.Pos(),
				"sentinel error %s passed to fmt.Errorf without %%w: the chain breaks and errors.Is callers stop matching",
				name)
		}
	}
}
