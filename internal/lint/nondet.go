package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonDet is the determinism pass: it keeps ambient nondeterminism out of
// everything the engines' bit-identical-run guarantee covers. One flood
// of the static call graph starts from every function of the
// determinism-critical packages (fl, sched, tensor and nn, tests
// included) and every function documented `// fedlint:deterministic` or
// `// fedlint:hotpath`, and reports five source shapes in whatever it
// reaches, in any package of the module:
//
//   - calls to the top-level math/rand convenience functions (rand.Intn,
//     rand.Float64, …), which draw from the shared global source instead
//     of a *rand.Rand threaded from Config.Seed;
//   - wall-clock reads (time.Now, time.Since, time.Until) outside
//     benchmark functions — simulated time comes from the device/network
//     models instead;
//   - range statements over maps whose body is order-sensitive (appends,
//     float, complex or string accumulation into outer state, channel
//     sends) without the sorted-keys idiom: map iteration order is
//     deliberately randomized by the runtime;
//   - goroutines spawned in a declaration with no visible join (no
//     WaitGroup.Wait, channel receive or channel range anywhere in it):
//     whatever such a goroutine writes races the caller's reads;
//   - the same accumulation into outer state inside a `go` function
//     literal, which folds in goroutine completion order.
//
// The sole-statement key-collection loop (`for k := range m { keys =
// append(keys, k) }`) is the first half of the sorted-keys idiom and is
// never flagged. A callee documented `// fedlint:detsafe` is an audited
// boundary the flood does not enter, and a call site carrying
// //fedlint:allow nondet does not propagate. A source inside the four
// packages is reported as is; one elsewhere names the root that reached
// it and the call path. Package-level initializers of the four packages
// are not functions, so the flood never reaches them: they are scanned
// directly.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc:  "global math/rand, wall clocks, order-sensitive map ranges and goroutine folds in packages fl, sched, tensor and nn and wherever deterministic or hotpath roots reach",
	Run:  runNonDet,
}

// nonDetScope names the determinism-critical packages by package name,
// so their external test packages (name_test) count too: everything the
// FL engines touch numerically. The experiment drivers deliberately are
// not here: they time wall clocks for their report tables.
var nonDetScope = map[string]bool{"fl": true, "sched": true, "tensor": true, "nn": true}

func inNonDetScope(p *Package) bool {
	return nonDetScope[strings.TrimSuffix(p.Types.Name(), "_test")]
}

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
	var roots []string
	for _, key := range pr.keys {
		pf := pr.Funcs[key]
		if inNonDetScope(pf.Pkg) || declMarker(pf.Decl, detMarker) || declMarker(pf.Decl, hotpathMarker) {
			roots = append(roots, key)
		}
	}
	reached := pr.flood(roots, "nondet", func(pf *ProgFunc) bool {
		return declMarker(pf.Decl, detSafeMarker)
	})
	for _, key := range sortedReach(reached) {
		node, pf := reached[key], pr.Funcs[key]
		if inNonDetScope(pf.Pkg) {
			continue // scanned declaration by declaration below
		}
		for _, src := range pf.Pkg.detSources(pf.Decl) {
			r.reportf(pf.Pkg, src.pos, "%s is reachable from deterministic root %s (path: %s); %s",
				src.what, pr.pathFrom(rootNode(node)), pr.pathFrom(node), src.fix)
		}
	}
	for _, p := range pr.Packages {
		if !inNonDetScope(p) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				for _, src := range p.detSources(decl) {
					r.reportf(p, src.pos, "%s", src.local)
				}
			}
		}
	}
	return r.diags
}

// detSource is one nondeterminism source inside a declaration, worded
// two ways: local is the whole message for a determinism-critical
// package; what and fix frame the call path for a source reached from
// elsewhere.
type detSource struct {
	pos              token.Pos
	local, what, fix string
}

// detSources scans one top-level declaration for the five source shapes.
func (p *Package) detSources(decl ast.Decl) []detSource {
	fd, isFunc := decl.(*ast.FuncDecl)
	inBenchmark := isFunc && strings.HasPrefix(fd.Name.Name, "Benchmark") && p.isTestFile(fd.Pos())
	const seeded = "thread seeded state from Config.Seed / the simulated clock instead"
	var srcs []detSource
	var goPos []token.Pos
	joined := false
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch kind, what := p.nonDetCallSource(n, inBenchmark); kind {
			case "rand":
				srcs = append(srcs, detSource{n.Pos(), "call to " + what + " draws from the shared process-wide source; thread a seeded *rand.Rand (from Config.Seed) instead", what, seeded})
			case "time":
				srcs = append(srcs, detSource{n.Pos(), what + " in a determinism-critical package; simulated time must come from the device/network models, wall clocks only belong in benchmarks", what, seeded})
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true // WaitGroup.Wait (or any explicit join point)
			}
		case *ast.RangeStmt:
			if what := p.mapRangeSource(n); what != "" {
				const fix = "collect and sort the keys, then iterate the sorted slice"
				srcs = append(srcs, detSource{n.Pos(), "range over map " + exprString(n.X) + " has an order-sensitive body (" + what + "); " + fix,
					"order-sensitive map iteration (" + what + ")", fix})
			}
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					joined = true
				}
			}
		case *ast.GoStmt:
			goPos = append(goPos, n.Pos())
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				srcs = append(srcs, p.goroutineFolds(lit.Body)...)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		}
		return true
	})
	if !joined {
		const what, fix = "goroutine with no visible join in the enclosing function", "join (WaitGroup.Wait or a channel receive) before returning, then reduce in a deterministic order"
		for _, pos := range goPos {
			srcs = append(srcs, detSource{pos, what + "; " + fix, what, fix})
		}
	}
	return srcs
}

// goroutineFolds reports every accumulation into state outside a spawned
// function literal's body: the fold happens in completion order, racing
// the other workers' folds even when a mutex makes it race-free.
func (p *Package) goroutineFolds(body *ast.BlockStmt) []detSource {
	var srcs []detSource
	ast.Inspect(body, func(n ast.Node) bool {
		if asg, ok := n.(*ast.AssignStmt); ok {
			if kind, target := p.orderSensitiveAssign(asg, body); kind != "" {
				acc := kind + " accumulation into " + target
				local := acc + " from a spawned goroutine folds in completion order; write per-worker partials and reduce after the join"
				srcs = append(srcs, detSource{asg.Pos(), local, "goroutine fold (" + acc + ")", local})
			}
		}
		return true
	})
	return srcs
}

// nonDetCallSource classifies a call as an ambient-nondeterminism
// source. kind is "rand" or "time" ("" when the call is clean); what is
// a short human description of the source.
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

// mapRangeSource reports a non-empty description when rng is a range
// over a map whose body is order-sensitive and not the audited
// key-collection idiom.
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
			if kind, target := p.orderSensitiveAssign(n, body); kind != "" {
				what = "accumulation into " + target
			}
		}
		return what == ""
	})
	return what
}

// orderSensitiveAssign reports an op-assignment (+=, -=, *=, /=) that
// folds into a float, complex or string accumulator declared outside
// body: kind is "float" or "string" ("" when the assignment is not such
// a fold) and target the accumulator. Integer folds with commutative
// operators are order-insensitive and stay legal.
func (p *Package) orderSensitiveAssign(asg *ast.AssignStmt, body *ast.BlockStmt) (kind, target string) {
	switch asg.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return "", ""
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
		if b.Info()&types.IsString != 0 {
			return "string", exprString(lhs)
		}
		return "float", exprString(lhs)
	}
	return "", ""
}
