package lint

import (
	"go/ast"
	"go/types"
)

// SyncMisuse flags wg.Add called inside the goroutine it accounts for:
// the spawner can reach wg.Wait before the goroutine is scheduled, so
// Wait returns early and the reduction reads half-finished state. Add
// must happen on the spawning side, before the go statement.
//
// By-value copies of lock-holding structs are go vet's copylocks pass,
// which make vet and make check run: it flags value receivers and
// parameters, plain-copy assignments and range values of any struct that
// transitively holds a sync or sync/atomic type. The one shape it lets
// through, returning a freshly built zero value (return guarded{}),
// copies no live lock.
var SyncMisuse = &Analyzer{
	Name: "syncmisuse",
	Doc:  "wg.Add inside the spawned goroutine (lock copies: go vet copylocks)",
	Run:  runSyncMisuse,
}

func runSyncMisuse(pr *Program) []Diagnostic {
	r := &reporter{check: "syncmisuse"}
	for _, p := range pr.Packages {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.checkGoAdd(r, g)
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
