package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// poollife machine-checks the PR-8 sync.Pool lifecycle that keeps the
// hot path's pooled carriers (pipeReq, batchWork, aggregate) from
// resurrecting under a stage that still reads them:
//
//  1. no use after Put — once a pooled pointer is Put, the function
//     must not touch it again on that path: the pool may already have
//     handed it to another goroutine, so every later read races the
//     next request's state.
//  2. no double Put — putting the same pointer twice on one path
//     double-issues it: two goroutines get the "same" carrier and the
//     generation/refcount invariants are gone.
//  3. designated recyclers only — Put runs only inside the type's
//     recycler (poolRecyclers, seeded with the PR-8 carriers;
//     unconfigured pooled types fall back to a recycler-shaped name:
//     put*/release*/recycle*/retire*/free*). Scattered Put sites are
//     how retention bugs are born: the recycler is where the "last
//     holder released, future resolved" precondition is auditable.
//
// The analysis is intraprocedural over the shared flowWalk and tracks
// pointers by identifier; branch merges are optimistic (a Put on only
// one arm does not poison the join), so it under-reports rather than
// crying wolf. Pools are recognised as package-level
// `var x = sync.Pool{...}` declarations; the pooled type is read from
// the New closure's `return &T{...}`.
var analyzerPoollife = &Analyzer{
	Name: "poollife",
	Doc: "sync.Pool discipline: no use of a pooled pointer after Put, no double\n" +
		"Put on any path, and Put only inside the type's designated recycler",
	Run: runPoollife,
}

// poolRecyclers maps a pooled type name to the functions allowed to Put
// it back. Seeded with the serving path's carriers; extend it when a new
// pooled type earns a recycler. A request's carrier is recycled by
// Future.Wait, but through releaseReq: registering "Wait" itself would
// make every wg.Wait() a hand-off of wg.
var poolRecyclers = map[string][]string{
	"pipeReq":   {"releaseReq"},
	"batchWork": {"retireBatchWork"},
	"aggregate": {"putAggregate"},
}

// recyclerNameRe is the fallback for pooled types not in poolRecyclers:
// the Put must at least live in a function named like a recycler.
var recyclerNameRe = regexp.MustCompile(`(?i)^(put|release|recycle|retire|free|drop)`)

// recyclerFuncNames flattens poolRecyclers for wrapper-call tracking:
// production code rarely calls pool.Put directly — it hands the pointer
// to the recycler (`releaseReq(r)`, `retireBatchWork(w)`), and from the
// caller's side that hand-off relinquishes the reference just as hard
// as a Put would.
var recyclerFuncNames = func() map[string]bool {
	m := map[string]bool{}
	for _, fns := range poolRecyclers {
		for _, fn := range fns {
			m[fn] = true
		}
	}
	return m
}()

// poolVar is one package-level sync.Pool variable.
type poolVar struct {
	name     string // variable name, e.g. "reqPool"
	elemType string // pooled type from the New closure ("" when unknown)
}

func runPoollife(pass *Pass) error {
	pools := collectPools(pass)
	if len(pools) == 0 {
		return nil
	}
	for _, f := range pass.Files() {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRecyclerRule(pass, pools, fn)
			checkPutPaths(pass, pools, fn.Body)
			// Closures get their own path state: a deferred or spawned
			// closure runs later, against its own view of the pointer.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkPutPaths(pass, pools, lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// collectPools finds package-level `var x = sync.Pool{...}` (or
// &sync.Pool{...}) declarations and the pooled element type named in
// the New closure.
func collectPools(pass *Pass) map[string]poolVar {
	pools := map[string]poolVar{}
	for _, f := range pass.Files() {
		syncName, ok := importName(f.AST, "sync")
		if !ok {
			continue
		}
		for _, decl := range f.AST.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if i >= len(vs.Names) {
						break
					}
					lit := compositeLit(val)
					if lit == nil || !isSelectorOf(lit.Type, syncName, "Pool") {
						continue
					}
					pools[vs.Names[i].Name] = poolVar{
						name:     vs.Names[i].Name,
						elemType: poolElemType(lit),
					}
				}
			}
		}
	}
	return pools
}

func compositeLit(e ast.Expr) *ast.CompositeLit {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return v
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if cl, ok := v.X.(*ast.CompositeLit); ok {
				return cl
			}
		}
	}
	return nil
}

func isSelectorOf(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}

// poolElemType extracts T from `sync.Pool{New: func() any { return &T{...} }}`.
func poolElemType(lit *ast.CompositeLit) string {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "New" {
			continue
		}
		fl, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			return ""
		}
		var typ string
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			if cl := compositeLit(ret.Results[0]); cl != nil {
				if id, ok := cl.Type.(*ast.Ident); ok {
					typ = id.Name
				}
			}
			return true
		})
		return typ
	}
	return ""
}

// poolPutCall matches `pool.Put(arg)` against the known pools,
// returning the pool and the argument.
func poolPutCall(pools map[string]poolVar, call *ast.CallExpr) (poolVar, ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return poolVar{}, nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return poolVar{}, nil, false
	}
	pv, ok := pools[id.Name]
	if !ok {
		return poolVar{}, nil, false
	}
	return pv, call.Args[0], true
}

// poolRecyclerHandoff matches a call that hands a pooled pointer to a
// configured recycler — `releaseReq(r)` or method form
// `a.putAggregate()` — and returns the identifier whose reference is
// relinquished by the call. Package-qualified selectors are excluded:
// the receiver must be a value, not an import name.
func poolRecyclerHandoff(pass *Pass, call *ast.CallExpr) (*ast.Ident, string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if recyclerFuncNames[fun.Name] && len(call.Args) >= 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				return id, fun.Name, true
			}
		}
	case *ast.SelectorExpr:
		if !recyclerFuncNames[fun.Sel.Name] {
			return nil, "", false
		}
		// With arguments, the relinquished pointer is the argument
		// (`p.releaseReq(r)` retires r, not the pipeline receiver);
		// without, it is the receiver (`a.putAggregate()`).
		if len(call.Args) >= 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				return id, fun.Sel.Name, true
			}
			return nil, "", false
		}
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		if pass.Pkg.Info != nil {
			if obj, ok := pass.Pkg.Info.Uses[id]; ok {
				if _, isPkg := obj.(*types.PkgName); isPkg {
					return nil, "", false
				}
			}
		}
		return id, fun.Sel.Name, true
	}
	return nil, "", false
}

// checkRecyclerRule enforces rule 3: every Put in fn must be allowed
// for the pooled type.
func checkRecyclerRule(pass *Pass, pools map[string]poolVar, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pv, _, ok := poolPutCall(pools, call)
		if !ok {
			return true
		}
		name := fn.Name.Name
		if allowed, configured := poolRecyclers[pv.elemType]; configured {
			for _, a := range allowed {
				if name == a {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"%s.Put outside the designated recycler for %s (allowed: %s): scattered Put sites break the pool-safety invariant — route recycling through the recycler, or extend poolRecyclers with a justification",
				pv.name, pv.elemType, strings.Join(allowed, ", "))
			return true
		}
		if !recyclerNameRe.MatchString(name) {
			pass.Reportf(call.Pos(),
				"%s.Put in %s, which is not a recycler: give the pooled type a designated recycler (put*/release*/recycle*/retire*/free*) or register it in poolRecyclers",
				pv.name, name)
		}
		return true
	})
}

// poolPathState tracks, along one control-flow path, which identifiers
// have been Put (ident → position of the retiring Put).
type poolPathState struct {
	put map[string]token.Pos
}

func newPoolPathState() *poolPathState { return &poolPathState{put: map[string]token.Pos{}} }

func (s *poolPathState) clone() *poolPathState {
	cp := newPoolPathState()
	for k, v := range s.put {
		cp.put[k] = v
	}
	return cp
}

func (s *poolPathState) set(other *poolPathState) {
	s.put = map[string]token.Pos{}
	for k, v := range other.put {
		s.put[k] = v
	}
}

// meet keeps only pointers retired on both arms (optimistic join).
func (s *poolPathState) meet(other *poolPathState) {
	for k := range s.put {
		if _, ok := other.put[k]; !ok {
			delete(s.put, k)
		}
	}
}

// checkPutPaths enforces rules 1 and 2 over one function body.
func checkPutPaths(pass *Pass, pools map[string]poolVar, body *ast.BlockStmt) {
	visit := func(stmt ast.Stmt, st *poolPathState) {
		if len(st.put) == 0 {
			return
		}
		// Any appearance of a retired identifier in this statement's own
		// expressions — except as the target of a reassignment — is a
		// use after Put. Function literals are included: a closure
		// created after the Put retains the pointer past it.
		reassigned := map[*ast.Ident]bool{}
		if as, ok := stmt.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					reassigned[id] = true
				}
			}
		}
		// A re-Put (or re-release via a recycler) of an already-retired
		// pointer is the double-Put case; let effect report it once with
		// the better message.
		rePut := map[string]bool{}
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if _, arg, ok := poolPutCall(pools, call); ok {
					if id, ok := arg.(*ast.Ident); ok {
						rePut[id.Name] = true
					}
				} else if id, _, ok := poolRecyclerHandoff(pass, call); ok {
					rePut[id.Name] = true
				}
			}
		}
		flag := func(id *ast.Ident) {
			if putPos, ok := st.put[id.Name]; ok {
				p := pass.Pkg.Fset.Position(putPos)
				pass.Reportf(id.Pos(),
					"%s used after being returned to its pool at %s:%d: the pool may already have reissued it to another goroutine",
					id.Name, shortPath(p.Filename), p.Line)
			}
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				// A closure built after the Put retains the pointer past
				// it: every retired ident it captures is a use. The body
				// is scanned whole (flowWalk never enters literals).
				ast.Inspect(x.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						flag(id)
					}
					return true
				})
				return false
			case ast.Stmt:
				if x != stmt {
					return false // nested statements get their own visit
				}
			case *ast.Ident:
				if reassigned[x] || rePut[x.Name] {
					return true
				}
				flag(x)
			}
			return true
		})
	}
	effect := func(stmt ast.Stmt, st *poolPathState) {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return
			}
			if _, arg, ok := poolPutCall(pools, call); ok {
				id, ok := arg.(*ast.Ident)
				if !ok {
					return
				}
				if prev, double := st.put[id.Name]; double {
					p := pass.Pkg.Fset.Position(prev)
					pass.Reportf(call.Pos(),
						"double Put of %s (first Put at %s:%d): the pool will issue the same pointer to two goroutines",
						id.Name, shortPath(p.Filename), p.Line)
					return
				}
				st.put[id.Name] = call.Pos()
				return
			}
			// A recycler hand-off relinquishes the caller's reference: the
			// recycler owns refcounting and the Put from here on, so any
			// later touch on this path races the next holder.
			if id, recycler, ok := poolRecyclerHandoff(pass, call); ok {
				if prev, double := st.put[id.Name]; double {
					p := pass.Pkg.Fset.Position(prev)
					pass.Reportf(call.Pos(),
						"%s handed to recycler %s twice (first hand-off at %s:%d): the second release double-frees the reference",
						id.Name, recycler, shortPath(p.Filename), p.Line)
					return
				}
				st.put[id.Name] = call.Pos()
			}
		case *ast.AssignStmt:
			// Reassignment (including a fresh pool.Get) revives the name.
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					delete(st.put, id.Name)
				}
			}
		}
	}
	flowWalk(body, newPoolPathState(), visit, effect)
}
