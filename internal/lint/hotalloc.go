package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the allocation-free steady state of the training hot
// path. Functions carrying a `// fedlint:hotpath` line in their doc
// comment — TrainBatch, the layer Forward/Backward implementations, the
// GEMM core, the FedAvg reduction — and every function they statically
// reach, in any loaded package, must not:
//
//   - call a tensor.New* constructor (fresh tensor storage),
//   - make a float32/float64 slice,
//   - call append (its backing array may grow).
//
// This is TestTrainBatchSteadyStateAllocs turned into a per-line static
// guarantee: the runtime test proves the property holds today, the pass
// names the exact line that would break it tomorrow. Deliberate
// slow-path allocations (workspace (re)sizing on a geometry change, the
// parallel fan-out that the serial steady state never takes) carry
// //fedlint:allow hotalloc directives at the call site, so every
// exception is visible and justified in-line; a suppressed call site
// also keeps its callee out of the hot set.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocations (tensor.New*, make of float slices, append) reachable from // fedlint:hotpath roots",
	Run:  runHotAlloc,
}

func runHotAlloc(pr *Program) []Diagnostic {
	r := &reporter{check: "hotalloc"}
	roots := pr.rootsWith(hotpathMarker)
	reached := pr.flood(roots, "hotalloc", func(pf *ProgFunc) bool {
		// The New* constructors are the allocation primitives the pass
		// reports at call sites; they are never entered.
		return isTensorNew(pf.Fn)
	})
	for _, key := range sortedReach(reached) {
		node := reached[key]
		pf := pr.Funcs[key]
		via := ""
		if node.parent != nil {
			via = " (hot via " + pr.Funcs[rootNode(node).key].String() + ")"
		}
		pf.Pkg.checkHotBody(r, pf.Decl, via)
	}
	return r.diags
}

func (p *Package) checkHotBody(r *reporter, fd *ast.FuncDecl, via string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case p.isBuiltin(call, "append"):
			r.reportf(p, call.Pos(), "append in hot-path function %s%s may grow its backing array; write into a pre-sized workspace", fd.Name.Name, via)
		case p.isBuiltin(call, "make"):
			if len(call.Args) > 0 && p.isFloatSlice(call.Args[0]) {
				r.reportf(p, call.Pos(), "make of %s in hot-path function %s%s allocates; reuse a workspace (tensor.EnsureShape)", exprString(call.Args[0]), fd.Name.Name, via)
			}
		default:
			if fn := p.calleeFunc(call); fn != nil && isTensorNew(fn) {
				r.reportf(p, call.Pos(), "%s.%s in hot-path function %s%s allocates fresh tensor storage; reuse a workspace (tensor.EnsureShape)", fn.Pkg().Name(), fn.Name(), fd.Name.Name, via)
			}
		}
		return true
	})
}

// isFloatSlice reports whether the type expression denotes a slice of
// float32 or float64 (the backing storage of every tensor and panel).
func (p *Package) isFloatSlice(texpr ast.Expr) bool {
	t := p.Info.TypeOf(texpr)
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isTensorNew reports whether fn is an allocation primitive of a package
// named tensor: the New*/From*/Randn* constructors and their generic
// *Of variants (NewOf, From, RandnOf). Prefix matching keeps the pass
// aligned as width-parametric constructors are added.
func isTensorNew(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Name() != "tensor" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return strings.HasPrefix(fn.Name(), "New") || strings.HasPrefix(fn.Name(), "From") ||
		strings.HasPrefix(fn.Name(), "Randn")
}
