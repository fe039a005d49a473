package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockscope enforces the pipeline's deadlock invariant: a mutex
// acquired in a function must not be held across a blocking operation —
// a channel send or receive, a blocking select, a Wait call
// (Future.Wait, WaitGroup.Wait), or another lock acquisition. The
// serving path holds its locks for bookkeeping only; anything that can
// park the goroutine while a lock is held can wedge admission, drain,
// and every worker behind it. Nor may a CompareAndSwap retry loop run
// under a held mutex: the CAS already serialises its update, and
// spinning on it under the lock convoys every waiter behind the spin —
// code that stays correct, so no test or race run would show it.
//
// The analysis walks each function body linearly over the shared
// flowWalk, tracking mutexes locked directly in that function (x.Lock /
// x.RLock up to the matching Unlock, or function end for defer
// x.Unlock). It is intraprocedural and optimistic at branch merges: a
// branch that unlocks and falls through clears the lock, and function
// literals are analyzed as their own functions (a closure runs later,
// not under the caller's locks). A select with a default case is
// non-blocking and allowed.
var analyzerLockscope = &Analyzer{
	Name: "lockscope",
	Doc: "forbid blocking operations (channel send/receive, blocking select, Wait,\n" +
		"another Lock) and CompareAndSwap retry loops while a mutex is held",
	Run: runLockscope,
}

// heldLock is one directly-acquired mutex not yet released.
type heldLock struct {
	key      string // rendered receiver, e.g. "s.mu"
	pos      token.Pos
	deferred bool // released by defer: held to function end
}

func runLockscope(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		forEachFuncBody(f.AST, func(body *ast.BlockStmt) {
			inLoop := loopBodies(body)
			lockWalk(body, func(stmt ast.Stmt, held []heldLock) {
				if len(held) == 0 {
					return
				}
				checkBlockingStmt(pass, stmt, held, inLoop)
			})
		})
	}
	return nil
}

// loopBodies reports whether a position is retried by a for or range
// loop of this function — its condition, post statement or body
// (function literals are their own functions).
func loopBodies(body *ast.BlockStmt) func(token.Pos) bool {
	type span struct{ from, to token.Pos }
	var loops []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			from := s.Body.Pos()
			if s.Cond != nil {
				from = s.Cond.Pos()
			}
			loops = append(loops, span{from, s.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{s.Body.Pos(), s.End()})
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return func(pos token.Pos) bool {
		for _, l := range loops {
			if l.from <= pos && pos < l.to {
				return true
			}
		}
		return false
	}
}

// lockCallKind classifies a call as a mutex operation on a receiver.
func lockCallKind(call *ast.CallExpr) (key string, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return types.ExprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock"
	}
	return "", ""
}

// lockState is the flowWalk fact for lock tracking: the set of mutexes
// held at the current program point.
type lockState struct {
	held []heldLock
}

func (s *lockState) clone() *lockState {
	return &lockState{held: append([]heldLock(nil), s.held...)}
}

func (s *lockState) set(other *lockState) {
	s.held = append(s.held[:0:0], other.held...)
}

// meet keeps only locks present in both states (optimistic merge after
// a branch both arms of which may or may not have run).
func (s *lockState) meet(other *lockState) {
	keys := map[string]bool{}
	for _, h := range other.held {
		keys[h.key] = true
	}
	out := s.held[:0]
	for _, h := range s.held {
		if keys[h.key] {
			out = append(out, h)
		}
	}
	s.held = out
}

// lockEffect applies a statement's lock transition: a direct Lock/RLock
// call acquires, Unlock/RUnlock releases, and defer Unlock marks the
// lock held to function end.
func lockEffect(stmt ast.Stmt, s *lockState) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if key, kind := lockCallKind(call); key != "" {
				switch kind {
				case "lock":
					s.held = append(s.held, heldLock{key: key, pos: call.Pos()})
				case "unlock":
					out := s.held[:0]
					for _, h := range s.held {
						if h.key != key {
							out = append(out, h)
						}
					}
					s.held = out
				}
			}
		}
	case *ast.DeferStmt:
		if key, kind := lockCallKind(st.Call); kind == "unlock" {
			for i := range s.held {
				if s.held[i].key == key {
					s.held[i].deferred = true
				}
			}
		}
	}
}

// lockWalk runs visit over every statement of the body with the set of
// mutexes held at that point (before the statement's own effect).
func lockWalk(body *ast.BlockStmt, visit func(ast.Stmt, []heldLock)) {
	flowWalk(body, &lockState{},
		func(stmt ast.Stmt, s *lockState) { visit(stmt, s.held) },
		lockEffect)
}

// ---- blocking-operation checks ----------------------------------------

// checkBlockingStmt flags blocking operations in the statement's own
// expressions while locks are held. Nested statements get their own
// visit calls from the walker, and function literals run later — both
// are skipped here.
func checkBlockingStmt(pass *Pass, stmt ast.Stmt, held []heldLock, inLoop func(token.Pos) bool) {
	holder := held[len(held)-1].key
	check := func(exprs ...ast.Expr) { checkBlockingExprs(pass, holder, held, inLoop, exprs...) }
	switch s := stmt.(type) {
	case *ast.SendStmt:
		pass.Reportf(s.Arrow, "channel send while mutex %s is held: a blocked send wedges every goroutine waiting on the lock", holder)
		check(s.Chan, s.Value)
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			pass.Reportf(s.Select, "blocking select while mutex %s is held (a default case would make it non-blocking)", holder)
		}
	case *ast.ExprStmt:
		check(s.X)
	case *ast.AssignStmt:
		check(append(append([]ast.Expr{}, s.Lhs...), s.Rhs...)...)
	case *ast.ReturnStmt:
		check(s.Results...)
	case *ast.IfStmt:
		check(s.Cond)
	case *ast.ForStmt:
		if s.Cond != nil {
			check(s.Cond)
		}
	case *ast.SwitchStmt:
		if s.Tag != nil {
			check(s.Tag)
		}
	case *ast.RangeStmt:
		check(s.X)
	case *ast.DeferStmt, *ast.GoStmt:
		// The call runs later (or concurrently), not under these locks.
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

func checkBlockingExprs(pass *Pass, holder string, held []heldLock, inLoop func(token.Pos) bool, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false // analyzed as its own function
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.OpPos, "channel receive while mutex %s is held: a blocked receive wedges every goroutine waiting on the lock", holder)
				}
			case *ast.CallExpr:
				if key, kind := lockCallKind(x); kind == "lock" {
					for _, h := range held {
						if h.key == key {
							pass.Reportf(x.Pos(), "mutex %s re-acquired while already held: guaranteed self-deadlock", key)
							return true
						}
					}
					pass.Reportf(x.Pos(), "mutex %s acquired while %s is held: nested locking across scopes invites lock-order deadlocks", key, holder)
				} else if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					pass.Reportf(x.Pos(), "blocking %s.Wait call while mutex %s is held", types.ExprString(sel.X), holder)
				} else if ok && strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") && inLoop(x.Pos()) {
					pass.Reportf(x.Pos(), "CompareAndSwap retried in a loop while mutex %s is held: the CAS already serialises this update — holding the lock across the retry convoys every waiter behind a spin", holder)
				}
			}
			return true
		})
	}
}
