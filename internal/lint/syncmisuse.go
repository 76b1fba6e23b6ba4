package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncMisuse flags the two synchronization mistakes that have bitten (or
// nearly bitten) the worker pools:
//
//   - wg.Add called inside the goroutine it accounts for: the spawner
//     can reach wg.Wait before the goroutine is scheduled, so Wait
//     returns early and the reduction reads half-finished state. Add
//     must happen on the spawning side, before the go statement.
//   - by-value copies of structs that (transitively) contain a sync
//     primitive (Mutex, RWMutex, WaitGroup, Once, Cond, Pool, Map or a
//     sync/atomic type): the copy has its own lock state, silently
//     splitting critical sections. Flagged at value receivers, value
//     parameters/results, plain-copy assignments, and range-value
//     copies. (Channels — including the tensor lane semaphore — are
//     reference types and copy safely.)
var SyncMisuse = &Analyzer{
	Name: "syncmisuse",
	Doc:  "wg.Add inside the spawned goroutine; by-value copies of lock-holding structs",
	Run:  runSyncMisuse,
}

func runSyncMisuse(pr *Program) []Diagnostic {
	r := &reporter{check: "syncmisuse"}
	for _, p := range pr.Packages {
		lc := newLockCache()
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					p.checkGoAdd(r, n)
				case *ast.FuncDecl:
					p.checkFuncCopies(r, lc, n.Recv, n.Type)
				case *ast.FuncLit:
					p.checkFuncCopies(r, lc, nil, n.Type)
				case *ast.AssignStmt:
					p.checkAssignCopies(r, lc, n)
				case *ast.ValueSpec:
					for _, v := range n.Values {
						p.checkCopyExpr(r, lc, v, "assignment")
					}
				case *ast.RangeStmt:
					p.checkRangeCopies(r, lc, n)
				}
				return true
			})
		}
	}
	return r.diags
}

// checkGoAdd walks a go statement's function literal for Add calls on a
// WaitGroup that lives outside the goroutine.
func (p *Package) checkGoAdd(r *reporter, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.GoStmt); ok && inner != g {
			// A nested spawn gets its own top-level visit.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if !isWaitGroup(p.Info.TypeOf(sel.X)) {
			return true
		}
		// An Add on a WaitGroup declared inside this goroutine is a
		// fresh, correctly scoped pool — only outer WaitGroups race.
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil && obj.Pos() >= lit.Body.Pos() && obj.Pos() < lit.Body.End() {
				return true
			}
		}
		r.reportf(p, call.Pos(), "%s.Add inside the spawned goroutine races the spawner's Wait; call Add before the go statement", exprString(sel.X))
		return true
	})
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// checkFuncCopies flags value receivers, parameters and results whose
// type holds a lock.
func (p *Package) checkFuncCopies(r *reporter, lc *lockCache, recv *ast.FieldList, ftype *ast.FuncType) {
	report := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.Info.TypeOf(field.Type)
			if holder := lc.holds(t); holder != "" {
				r.reportf(p, field.Type.Pos(), "%s %s is passed by value but contains %s; use a pointer", kind, exprString(field.Type), holder)
			}
		}
	}
	report(recv, "receiver")
	report(ftype.Params, "parameter")
	report(ftype.Results, "result")
}

// checkAssignCopies flags `a = b` / `a := b` where b is an existing
// value (identifier, selector, index or dereference) of a lock-holding
// type. Constructing in place — composite literals, function calls — is
// the legal way to create such values and is not flagged.
func (p *Package) checkAssignCopies(r *reporter, lc *lockCache, asg *ast.AssignStmt) {
	if asg.Tok != token.ASSIGN && asg.Tok != token.DEFINE {
		return
	}
	for i, rhs := range asg.Rhs {
		// `_ = v` discards the copy instead of retaining it; only copies
		// bound to a name split lock state.
		if len(asg.Lhs) == len(asg.Rhs) {
			if id, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
				continue
			}
		}
		p.checkCopyExpr(r, lc, rhs, "assignment")
	}
}

func (p *Package) checkCopyExpr(r *reporter, lc *lockCache, e ast.Expr, kind string) {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := p.Info.TypeOf(e)
	if holder := lc.holds(t); holder != "" {
		r.reportf(p, e.Pos(), "%s copies %s by value but it contains %s; use a pointer", kind, exprString(e), holder)
	}
}

// checkRangeCopies flags `for _, v := range xs` where v copies a
// lock-holding element.
func (p *Package) checkRangeCopies(r *reporter, lc *lockCache, rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	t := p.Info.TypeOf(rng.Value)
	if holder := lc.holds(t); holder != "" {
		r.reportf(p, rng.Value.Pos(), "range value %s copies an element that contains %s; range over indices or pointers", exprString(rng.Value), holder)
	}
}

// lockCache memoizes the "does this type transitively contain a sync
// primitive" query, with cycle protection for recursive types.
type lockCache struct {
	result  map[types.Type]string // finished answers ("" = copies safely)
	walking map[types.Type]bool   // cycle guard for the traversal in flight
}

func newLockCache() *lockCache {
	return &lockCache{result: make(map[types.Type]string), walking: make(map[types.Type]bool)}
}

// holds returns the name of a sync primitive contained (transitively,
// by value) in t, or "" when t copies safely.
func (lc *lockCache) holds(t types.Type) string {
	if t == nil {
		return ""
	}
	if name, ok := lc.result[t]; ok {
		return name
	}
	if name := syncPrimitive(t); name != "" {
		lc.result[t] = name
		return name
	}
	if lc.walking[t] {
		return ""
	}
	lc.walking[t] = true
	name := ""
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name = lc.holds(u.Field(i).Type()); name != "" {
				break
			}
		}
	case *types.Array:
		name = lc.holds(u.Elem())
	}
	delete(lc.walking, t)
	lc.result[t] = name
	return name
}

// syncPrimitive reports whether t itself is a lock-like type from sync
// or sync/atomic.
func syncPrimitive(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "sync":
		switch obj.Name() {
		case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
			return "sync." + obj.Name()
		}
	case "sync/atomic":
		switch obj.Name() {
		case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
			return "atomic." + obj.Name()
		}
	}
	return ""
}
