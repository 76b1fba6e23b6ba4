package lint

import (
	"go/ast"
	"go/token"
)

// GoroutineBound checks that every `go` statement reachable from a
// hotpath or deterministic root is dominated by an acquire on one of the
// audited bounded-concurrency idioms, so no code path the engines take
// can fan out an unbounded number of goroutines:
//
//   - the lane semaphore (tensor.TryAcquireLanes / ReleaseLanes) that
//     caps the whole process at GOMAXPROCS−1 extra workers, and
//   - the worker pool (internal/fl's fanOut), whose spawn loop runs
//     under lanes acquired the same way,
//
// both of which read as a call to an Acquire-family function before the
// spawn. A channel-semaphore receive (`<-sem`) before the spawn also
// counts. "Dominated" is approximated lexically: an acquire must appear
// earlier in the same enclosing function declaration than the go
// statement — exact dominance needs a CFG, and the audited idioms all
// acquire directly above their spawn loops.
var GoroutineBound = &Analyzer{
	Name: "goroutinebound",
	Doc:  "go statements reachable from hotpath/deterministic roots must sit under a bounded-pool or semaphore acquire",
	Run:  runGoroutineBound,
}

// acquireNames are the call names recognized as taking a token from a
// bounded pool or semaphore.
var acquireNames = map[string]bool{
	"TryAcquireLanes": true,
	"AcquireLanes":    true,
	"TryAcquire":      true,
	"Acquire":         true,
}

func runGoroutineBound(pr *Program) []Diagnostic {
	r := &reporter{check: "goroutinebound"}
	roots := pr.rootsWith(detMarker, hotpathMarker)
	reached := pr.flood(roots, "goroutinebound", nil)
	for _, key := range sortedReach(reached) {
		node := reached[key]
		pf := pr.Funcs[key]
		for _, pos := range unboundedSpawns(pf) {
			r.reportf(pf.Pkg, pos, "go statement is not dominated by a bounded-pool acquire (tensor.TryAcquireLanes or a semaphore receive) yet is reachable from %s (path: %s); spawn only under the lane budget",
				pr.Funcs[rootNode(node).key].String(), pr.pathFrom(node))
		}
	}
	return r.diags
}

// unboundedSpawns returns the positions of go statements in fd that have
// no acquire lexically before them in the same declaration.
func unboundedSpawns(pf *ProgFunc) []token.Pos {
	fd := pf.Decl
	var acquires []token.Pos
	var spawns []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := callName(n); acquireNames[name] {
				acquires = append(acquires, n.Pos())
			}
		case *ast.UnaryExpr:
			// A channel receive is a semaphore-token take in the audited
			// idioms; any receive before the spawn counts.
			if n.Op == token.ARROW {
				acquires = append(acquires, n.Pos())
			}
		case *ast.GoStmt:
			spawns = append(spawns, n.Pos())
		}
		return true
	})
	var out []token.Pos
	for _, s := range spawns {
		bounded := false
		for _, a := range acquires {
			if a < s {
				bounded = true
				break
			}
		}
		if !bounded {
			out = append(out, s)
		}
	}
	return out
}

// callName extracts the bare called name of a call expression (the
// selector's field name or the identifier), unwrapping explicit generic
// instantiation.
func callName(call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
