package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// goleak demands a visible termination path for every goroutine spawned
// in the concurrent serving packages (internal/core, internal/cluster,
// internal/opencl): the device workers and recovery probers those
// packages spin up must not be able to outlive their node.
// A `go` statement passes when the analyzer can see at least one of:
//
//   - WaitGroup registration — an X.Add(...) on a sync.WaitGroup (or a
//     WaitGroup-named field: wg, workers, relays, ...) earlier in the
//     spawning function, or a `defer X.Done()` inside the goroutine
//     body. The owner's Close/Drain/Kill waits on that group, so the
//     goroutine's lifetime is bounded by its owner's.
//   - quit-channel guard — the goroutine body (or, for `go x.method()`,
//     the method's body resolved within the package) receives from a
//     ctx.Done() channel or from a channel named like a lifecycle
//     signal (quit, stop, done, closing, closed, exit, kill), in a
//     select or a direct receive, so shutdown reaches it.
//   - bounded body — the body contains no loops at all and every
//     channel operation in it is a send to or receive from a buffered-
//     looking hand-off the spawner waits on; the analyzer approximates
//     this as "no for/range statement and no channel receive", since a
//     loop-free goroutine terminates unless it parks forever.
//
// Everything else is reported. Intentional detachments carry a
// //bomw:goleak directive with the reason the goroutine cannot wedge.
var analyzerGoleak = &Analyzer{
	Name: "goleak",
	Doc: "every go statement in internal/{core,cluster,opencl} needs a visible\n" +
		"termination path: WaitGroup registration, a ctx.Done()/quit-channel\n" +
		"guard, or a provably bounded body",
	Run: runGoleak,
}

// goleakPkgs are the packages whose goroutines must be owned. Matched
// like the wallclock scope so fixtures can mirror the layout.
var goleakPkgs = []string{
	"internal/core",
	"internal/cluster",
	"internal/opencl",
}

func isGoleakPkg(rel string) bool {
	for _, p := range goleakPkgs {
		if rel == p || strings.HasSuffix(rel, "/"+p) {
			return true
		}
	}
	return false
}

// waitGroupNameRe is the syntactic fallback for WaitGroup-ish
// identifiers when type info cannot resolve the field.
var waitGroupNameRe = regexp.MustCompile(`(?i)(^|\.)(wg|waitgroup|workers|relays|\w*wg)$`)

// quitChanNameRe matches lifecycle-signal channel names.
var quitChanNameRe = regexp.MustCompile(`(?i)(quit|stop|done|clos|exit|kill|shutdown)`)

func runGoleak(pass *Pass) error {
	if !isGoleakPkg(pass.Pkg.Rel) {
		return nil
	}
	methods := indexFuncDecls(pass)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGoStmts(pass, methods, fn.Body)
		}
	}
	return nil
}

// indexFuncDecls maps function and method names to their declarations
// for same-package resolution of `go x.method()` bodies. Methods index
// under both "name" (when unambiguous) and "Type.name".
func indexFuncDecls(pass *Pass) map[string][]*ast.FuncDecl {
	idx := map[string][]*ast.FuncDecl{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			idx[fn.Name.Name] = append(idx[fn.Name.Name], fn)
			if _, typ := receiverOf(fn); typ != "" {
				idx[typ+"."+fn.Name.Name] = append(idx[typ+"."+fn.Name.Name], fn)
			}
		}
	}
	return idx
}

// checkGoStmts walks one function body; enclosing tracks the nearest
// function body for the spawn-side WaitGroup evidence.
func checkGoStmts(pass *Pass, methods map[string][]*ast.FuncDecl, body *ast.BlockStmt) {
	var walk func(n ast.Node, enclosing *ast.BlockStmt)
	walk = func(n ast.Node, enclosing *ast.BlockStmt) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				if x.Body != nil {
					walk(x.Body, x.Body)
				}
				return false
			case *ast.GoStmt:
				checkGoStmt(pass, methods, x, enclosing)
				// The spawned body is itself walked for nested spawns.
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
					walk(lit.Body, lit.Body)
					return false
				}
			}
			return true
		})
	}
	walk(body, body)
}

func checkGoStmt(pass *Pass, methods map[string][]*ast.FuncDecl, g *ast.GoStmt, enclosing *ast.BlockStmt) {
	if waitGroupAddBefore(pass, enclosing, g.Pos()) {
		return
	}
	body := goroutineBody(pass, methods, g)
	if body == nil {
		// Cross-package or dynamic target: nothing visible to judge.
		pass.Reportf(g.Pos(),
			"goroutine target is not resolvable in this package and no WaitGroup registration precedes the spawn: goroutines in %s must have a visible termination path (register on the owner's WaitGroup, or guard the loop with ctx.Done()/a quit channel)",
			pass.Pkg.Rel)
		return
	}
	if bodyHasDeferredDone(pass, body) || bodyHasQuitGuard(pass, body) || bodyIsBounded(body) {
		return
	}
	pass.Reportf(g.Pos(),
		"goroutine has no visible termination path: no WaitGroup registration before the spawn, no defer Done, no ctx.Done()/quit-channel guard, and the body loops; a node kill would leak it — own it with the spawner's WaitGroup or guard its loop",
	)
}

// goroutineBody resolves the spawned body: a func literal directly, or
// a same-package function/method declaration.
func goroutineBody(pass *Pass, methods map[string][]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if decls := methods[fun.Name]; len(decls) == 1 {
			return decls[0].Body
		}
	case *ast.SelectorExpr:
		// go x.method(...) — try Type.method via type info, then the
		// bare method name when it is unambiguous in the package.
		if tn := namedTypeName(pass, fun.X); tn != "" {
			if decls := methods[tn+"."+fun.Sel.Name]; len(decls) == 1 {
				return decls[0].Body
			}
		}
		if decls := methods[fun.Sel.Name]; len(decls) == 1 {
			return decls[0].Body
		}
	}
	return nil
}

// waitGroupAddBefore reports whether a WaitGroup Add call appears in
// the enclosing body lexically before the go statement.
func waitGroupAddBefore(pass *Pass, enclosing *ast.BlockStmt, before token.Pos) bool {
	if enclosing == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= before {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if isWaitGroupish(pass, sel.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isWaitGroupish resolves the expression to sync.WaitGroup via type
// info, with a name-shape fallback for degraded info.
func isWaitGroupish(pass *Pass, e ast.Expr) bool {
	if pass.Pkg.Info != nil {
		if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					return true
				}
				// Resolved to something else (e.g. atomic.Int64): not a
				// WaitGroup no matter what it is called.
				return false
			}
		}
	}
	return waitGroupNameRe.MatchString(types.ExprString(e))
}

// bodyHasDeferredDone looks for `defer X.Done()` on a WaitGroup-ish X —
// the goroutine registered itself for its owner to wait on.
func bodyHasDeferredDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if isWaitGroupish(pass, sel.X) {
			found = true
		}
		return true
	})
	return found
}

// bodyHasQuitGuard looks for a receive from ctx.Done() or from a
// lifecycle-named channel anywhere in the body (select case or direct
// receive).
func bodyHasQuitGuard(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return true
		}
		switch ch := un.X.(type) {
		case *ast.CallExpr:
			// <-ctx.Done(), <-x.Quit()
			if sel, ok := ch.Fun.(*ast.SelectorExpr); ok && quitChanNameRe.MatchString(sel.Sel.Name) {
				found = true
			}
		default:
			if quitChanNameRe.MatchString(types.ExprString(ch)) {
				found = true
			}
		}
		return true
	})
	return found
}

// bodyIsBounded approximates "this goroutine terminates on its own":
// no loops and no channel receives — it runs straight-line work (often
// a single send the spawner consumes) and exits.
func bodyIsBounded(body *ast.BlockStmt) bool {
	bounded := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !bounded {
			return false
		}
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			bounded = false
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				bounded = false
				return false
			}
		case *ast.SelectStmt:
			bounded = false
			return false
		case *ast.FuncLit:
			return false // its own goroutine/closure, judged separately
		}
		return true
	})
	return bounded
}

// receiverOf returns a method's receiver name and (pointer-stripped)
// type name; both empty for a plain function.
func receiverOf(fn *ast.FuncDecl) (name, typ string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return "", ""
	}
	field := fn.Recv.List[0]
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typ = id.Name
	}
	if len(field.Names) > 0 {
		name = field.Names[0].Name
	}
	return name, typ
}

// namedTypeName resolves the named type of an expression ("" when
// unknown), looking through pointers.
func namedTypeName(pass *Pass, e ast.Expr) string {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
