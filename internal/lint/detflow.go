package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow is the interprocedural determinism-taint pass. Functions whose
// doc comment carries `// fedlint:deterministic` are roots of a
// bit-reproducibility contract: everything they statically reach — in
// any package of the module — must be free of ambient nondeterminism.
// The walk reports four source shapes at the line where the source
// lives, with the call path back to the root that reached it:
//
//   - calls to the global math/rand convenience functions,
//   - wall-clock reads (time.Now, time.Since, time.Until) outside
//     benchmark functions,
//   - order-sensitive folds over map iteration (the nondet pass's rules,
//     applied wherever a deterministic root can reach),
//   - goroutines spawned inside a function with no visible join (no
//     WaitGroup.Wait, channel receive, or channel range anywhere in the
//     declaration): whatever such a goroutine writes races the caller's
//     reads, so even seeded work diverges run to run.
//
// Sanitizers: a callee documented `// fedlint:detsafe` is an audited
// boundary — the walk does not enter it — and a call site carrying
// //fedlint:allow detflow does not propagate taint. A source line can
// also be suppressed directly where it occurs.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "nondeterminism sources reachable from // fedlint:deterministic roots across the whole program",
	Run:  runDetFlow,
}

func runDetFlow(pr *Program) []Diagnostic {
	r := &reporter{check: "detflow"}
	roots := pr.rootsWith(detMarker)
	reached := pr.flood(roots, "detflow", func(pf *ProgFunc) bool {
		return declMarker(pf.Decl, detSafeMarker)
	})
	for _, key := range sortedReach(reached) {
		node := reached[key]
		pf := pr.Funcs[key]
		for _, src := range pr.detSources(pf) {
			r.reportf(pf.Pkg, src.pos, "%s is reachable from deterministic root %s (path: %s); %s",
				src.what, pr.pathFrom(rootNode(node)), pr.pathFrom(node), src.fix)
		}
	}
	return r.diags
}

// rootNode walks a reach chain back to its root.
func rootNode(n *reachNode) *reachNode {
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// detSource is one nondeterminism source inside a function body.
type detSource struct {
	pos  token.Pos
	what string
	fix  string
}

// detSources scans one function declaration for the four source shapes.
func (pr *Program) detSources(pf *ProgFunc) []detSource {
	p, fd := pf.Pkg, pf.Decl
	inBenchmark := strings.HasPrefix(fd.Name.Name, "Benchmark") && p.isTestFile(fd.Pos())
	var srcs []detSource
	var goPos []token.Pos
	joined := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, what := p.nonDetCallSource(n, inBenchmark); what != "" {
				srcs = append(srcs, detSource{n.Pos(), what, "thread seeded state from Config.Seed / the simulated clock instead"})
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true // WaitGroup.Wait (or any explicit join point)
			}
		case *ast.RangeStmt:
			if what := p.mapRangeSource(n); what != "" {
				srcs = append(srcs, detSource{n.Pos(), "order-sensitive map iteration (" + what + ")", "collect and sort the keys, then iterate the sorted slice"})
			}
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					joined = true
				}
			}
		case *ast.GoStmt:
			goPos = append(goPos, n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		}
		return true
	})
	if !joined {
		for _, pos := range goPos {
			srcs = append(srcs, detSource{pos, "goroutine with no visible join in the enclosing function", "join (WaitGroup.Wait or a channel receive) before returning, then reduce in a deterministic order"})
		}
	}
	return srcs
}
