package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonDet flags the three ambient-state leaks that break the engines'
// bit-identical-run guarantee inside the determinism-critical packages:
//
//   - calls to the top-level math/rand convenience functions (rand.Intn,
//     rand.Float64, …), which draw from the shared global source instead
//     of a *rand.Rand threaded from Config.Seed;
//   - wall-clock reads (time.Now, time.Since, time.Until) outside
//     benchmark functions — they feed timestamps into results that then
//     differ run to run (simulated time comes from the device/network
//     models instead);
//   - range statements over maps whose body is order-sensitive (appends,
//     floating-point or string accumulation, channel sends) without the
//     sorted-keys idiom: map iteration order is deliberately randomized
//     by the runtime, so any order-dependent fold over it diverges
//     between runs.
//
// The sole-statement key-collection loop (`for k := range m { keys =
// append(keys, k) }`) is recognized as the first half of the sorted-keys
// idiom and never flagged. Unlike detflow, nondet covers every function
// of its packages, tests included, reachable from a root or not.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc:  "global math/rand, wall clocks, and order-sensitive map iteration in packages fl, sched, tensor and nn",
	Run:  runNonDet,
}

// nonDetScope names the determinism-critical packages by package name,
// so their external test packages (name_test) count too: everything the
// FL engines touch numerically. The experiment drivers deliberately are
// not here: they time wall clocks for their report tables.
var nonDetScope = map[string]bool{"fl": true, "sched": true, "tensor": true, "nn": true}

// globalRandFuncs are the math/rand (and math/rand/v2) top-level
// functions that consult process-global state. Constructors (New,
// NewSource, NewPCG, …) are fine: they are how the seeded generator the
// codebase threads around gets built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

func runNonDet(pr *Program) []Diagnostic {
	r := &reporter{check: "nondet"}
	for _, p := range pr.Packages {
		if !nonDetScope[strings.TrimSuffix(p.Types.Name(), "_test")] {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				inBenchmark := isFunc && strings.HasPrefix(fd.Name.Name, "Benchmark") && p.isTestFile(fd.Pos())
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						p.checkNonDetCall(r, n, inBenchmark)
					case *ast.RangeStmt:
						p.checkMapRange(r, n)
					}
					return true
				})
			}
		}
	}
	return r.diags
}

func (p *Package) checkNonDetCall(r *reporter, call *ast.CallExpr, inBenchmark bool) {
	switch kind, what := p.nonDetCallSource(call, inBenchmark); kind {
	case "rand":
		r.reportf(p, call.Pos(), "call to %s draws from the shared process-wide source; thread a seeded *rand.Rand (from Config.Seed) instead", what)
	case "time":
		r.reportf(p, call.Pos(), "%s in a determinism-critical package; simulated time must come from the device/network models, wall clocks only belong in benchmarks", what)
	}
}

// nonDetCallSource classifies a call as an ambient-nondeterminism source
// — shared by the nondet pass and the detflow taint walk. kind is "rand" or "time" ("" when the call is
// clean); what is a short human description of the source.
func (p *Package) nonDetCallSource(call *ast.CallExpr, inBenchmark bool) (kind, what string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn := p.pkgNameOf(id)
	if pn == nil {
		return "", ""
	}
	switch pn.Imported().Path() {
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			return "rand", "global " + pn.Imported().Name() + "." + sel.Sel.Name
		}
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			if !inBenchmark {
				return "time", "time." + sel.Sel.Name
			}
		}
	}
	return "", ""
}

// checkMapRange flags order-sensitive folds over map iteration.
func (p *Package) checkMapRange(r *reporter, rng *ast.RangeStmt) {
	if what := p.mapRangeSource(rng); what != "" {
		r.reportf(p, rng.Pos(), "range over map %s has an order-sensitive body (%s); collect and sort the keys, then iterate the sorted slice",
			exprString(rng.X), what)
	}
}

// mapRangeSource reports a non-empty description when rng is a range
// over a map whose body is order-sensitive and not the audited
// key-collection idiom — shared by nondet and detflow.
func (p *Package) mapRangeSource(rng *ast.RangeStmt) string {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return ""
	}
	if p.isKeyCollection(rng) {
		return ""
	}
	return p.orderSensitive(rng)
}

// isKeyCollection recognizes the first half of the sorted-keys idiom: a
// body whose only statement appends the range key (or value) to a slice.
func (p *Package) isKeyCollection(rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !p.isBuiltin(call, "append") || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && p.Info.ObjectOf(id) == p.Info.ObjectOf(arg) {
			return true
		}
	}
	return false
}

// orderSensitive scans a map-range body for operations whose result
// depends on iteration order, returning a short description of the first
// hit ("" when the body is order-insensitive).
func (p *Package) orderSensitive(rng *ast.RangeStmt) string {
	body := rng.Body
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			what = "channel send"
		case *ast.CallExpr:
			if p.isBuiltin(n, "append") {
				what = "append"
			}
		case *ast.AssignStmt:
			if what == "" {
				what = p.orderSensitiveAssign(n, body)
			}
		}
		return what == ""
	})
	return what
}

// orderSensitiveAssign reports op-assignments (+=, *=, …) that fold into
// a float, complex or string accumulator declared outside the loop body.
// Integer folds with commutative operators are order-insensitive and
// stay legal.
func (p *Package) orderSensitiveAssign(asg *ast.AssignStmt, body *ast.BlockStmt) string {
	switch asg.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	for _, lhs := range asg.Lhs {
		t := p.Info.TypeOf(lhs)
		if t == nil {
			continue
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&(types.IsFloat|types.IsComplex|types.IsString) == 0 {
			continue
		}
		// An accumulator scoped to one iteration cannot observe order.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
				continue
			}
		}
		return "accumulation into " + exprString(lhs)
	}
	return ""
}
