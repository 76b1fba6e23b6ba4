package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder flags order-sensitive floating-point accumulation in code
// reachable from hotpath or deterministic roots. Float addition is not
// associative, so a sum's bit pattern depends on the order terms are
// folded in; the two shapes whose order the runtime deliberately (map
// iteration) or incidentally (goroutine completion) randomizes are:
//
//   - a compound float assignment (+=, -=, *=, /=) into an accumulator
//     declared outside a map-range body, and
//   - a compound float assignment inside a `go` function literal whose
//     target lives outside the literal — the fold happens in completion
//     order, racing other workers' folds.
//
// Audited deterministic-reduction helpers — accumulateWeighted and kin,
// which fold in a caller-fixed order after the join — are marked
// `// fedlint:detreduce`; the walk neither enters nor reports them.
// Unlike nondet's map-range rule this pass is float-specific and runs
// wherever the roots reach, not just the determinism-critical packages.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc:  "order-sensitive float accumulation (map-range or goroutine completion order) reachable from hotpath/deterministic roots",
	Run:  runFloatOrder,
}

func runFloatOrder(pr *Program) []Diagnostic {
	r := &reporter{check: "floatorder"}
	roots := pr.rootsWith(detMarker, hotpathMarker)
	reached := pr.flood(roots, "floatorder", func(pf *ProgFunc) bool {
		return declMarker(pf.Decl, detReduceMarker)
	})
	for _, key := range sortedReach(reached) {
		pf := pr.Funcs[key]
		if declMarker(pf.Decl, detReduceMarker) {
			continue // a root can carry the marker itself
		}
		p, fd := pf.Pkg, pf.Decl
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				for _, hit := range p.floatAccumAssigns(n.Body) {
					r.reportf(p, hit.pos, "float accumulation into %s folds in map iteration order; iterate sorted keys or use an audited fedlint:detreduce helper", hit.target)
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					for _, hit := range p.floatAccumAssigns(lit.Body) {
						r.reportf(p, hit.pos, "float accumulation into %s from a spawned goroutine folds in completion order; write per-worker partials and reduce after the join", hit.target)
					}
				}
			}
			return true
		})
	}
	return r.diags
}

// floatAccum is one order-sensitive accumulation site.
type floatAccum struct {
	pos    token.Pos
	target string
}

// floatAccumAssigns finds compound float/complex assignments inside body
// whose left-hand side is declared outside it — an accumulator that
// observes the fold order.
func (p *Package) floatAccumAssigns(body *ast.BlockStmt) []floatAccum {
	var hits []floatAccum
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range asg.Lhs {
			t := p.Info.TypeOf(lhs)
			if t == nil {
				continue
			}
			b, ok := t.Underlying().(*types.Basic)
			if !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
				continue
			}
			// Only a target declared outside the body observes order.
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := p.Info.ObjectOf(id); obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
					continue
				}
			}
			hits = append(hits, floatAccum{asg.Pos(), exprString(lhs)})
		}
		return true
	})
	return hits
}
