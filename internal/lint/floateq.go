package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != where either operand is a floating-point (or
// complex) value, outside _test.go files. Exact float comparison is
// almost always a rounding-error bug in scheduling/cost code; the few
// legitimate uses — exact-zero sparsity sentinels in the naive GEMM
// kernels, NaN probes — carry //fedlint:allow floateq directives so each
// one is an audited, visible decision rather than an accident.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "exact ==/!= on floating-point operands outside tests",
	Run:  runFloatEq,
}

func runFloatEq(pr *Program) []Diagnostic {
	r := &reporter{check: "floateq"}
	for _, p := range pr.Packages {
		for _, f := range p.Files {
			if p.isTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if p.isFloatOperand(be.X) || p.isFloatOperand(be.Y) {
					r.reportf(p, be.OpPos, "%s compares floating-point values exactly; use a tolerance (math.Abs(a-b) <= eps) or restructure the test", be.Op)
				}
				return true
			})
		}
	}
	return r.diags
}

// isFloatOperand reports whether the expression has floating-point or
// complex type. Untyped constants that would default to float (1.5) are
// caught through the other operand's materialized type.
func (p *Package) isFloatOperand(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
