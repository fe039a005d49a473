package lint

import "go/ast"

// flowWalk drives lockscope's linear walk over the held-lock state:
// every statement of body is visited in control-flow order with the
// state holding *before* the statement's own effect, then effect applies
// the statement's transition. Branches fork a clone and meet back
// optimistically; a branch arm that terminates (return, branch
// statement, panic) does not contribute to the merge. Function literals
// are NOT entered — a closure runs later, under its own state — callers
// analyze them as separate bodies.
func flowWalk(body *ast.BlockStmt, init *lockState, visit, effect func(ast.Stmt, *lockState)) {
	flowStmts(body.List, init, visit, effect)
}

func flowStmts(list []ast.Stmt, st *lockState, visit, effect func(ast.Stmt, *lockState)) {
	for _, stmt := range list {
		flowStmt(stmt, st, visit, effect)
	}
}

func flowStmt(stmt ast.Stmt, st *lockState, visit, effect func(ast.Stmt, *lockState)) {
	visit(stmt, st)
	effect(stmt, st)
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		flowStmts(s.List, st, visit, effect)
	case *ast.LabeledStmt:
		flowStmt(s.Stmt, st, visit, effect)
	case *ast.IfStmt:
		if s.Init != nil {
			flowStmt(s.Init, st, visit, effect)
		}
		bodyState := st.clone()
		flowStmts(s.Body.List, bodyState, visit, effect)
		if s.Else != nil {
			elseState := st.clone()
			flowStmt(s.Else, elseState, visit, effect)
			switch {
			case terminates(s.Body.List):
				st.set(elseState)
			case elseTerminates(s.Else):
				st.set(bodyState)
			default:
				st.set(bodyState)
				st.meet(elseState)
			}
			return
		}
		if !terminates(s.Body.List) {
			st.meet(bodyState)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			flowStmt(s.Init, st, visit, effect)
		}
		bodyState := st.clone()
		flowStmts(s.Body.List, bodyState, visit, effect)
		st.meet(bodyState)
	case *ast.RangeStmt:
		bodyState := st.clone()
		flowStmts(s.Body.List, bodyState, visit, effect)
		st.meet(bodyState)
	case *ast.SwitchStmt:
		flowCaseBodies(s.Body, st, visit, effect)
	case *ast.TypeSwitchStmt:
		flowCaseBodies(s.Body, st, visit, effect)
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			caseState := st.clone()
			flowStmts(comm.Body, caseState, visit, effect)
			st.meet(caseState)
		}
	}
}

func flowCaseBodies(body *ast.BlockStmt, st *lockState, visit, effect func(ast.Stmt, *lockState)) {
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		caseState := st.clone()
		flowStmts(cc.Body, caseState, visit, effect)
		st.meet(caseState)
	}
}

// terminates reports whether the statement list ends in a statement
// that does not fall through (return, branch, panic).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func elseTerminates(els ast.Stmt) bool {
	switch e := els.(type) {
	case *ast.BlockStmt:
		return terminates(e.List)
	case *ast.IfStmt:
		return terminates(e.Body.List) && e.Else != nil && elseTerminates(e.Else)
	}
	return false
}

// forEachFuncBody visits every function body in the file: declarations
// and literals, each analyzed independently.
func forEachFuncBody(f *ast.File, visit func(*ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Body)
		}
		return true
	})
}
