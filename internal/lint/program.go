package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Program is the whole-module view every pass operates on: every loaded
// package plus a static call graph connecting their function
// declarations across package boundaries, which the reachability passes
// (nondet, hotalloc, goroutinebound, tracecomplete) flood.
//
// Cross-package function identity is by key, not by *types.Func: a
// package type-checked as an analysis target (with its test files) and
// the same package type-checked as a dependency of another target are
// distinct *types.Package instances, so the graph is joined on the
// stable string key "path|receiver|name" instead (funcKey). Generic
// instantiations are folded to their origin declaration, as calleeFunc
// folds them.
//
// Calls through interface values and function values are not followed,
// so concrete implementations carry their own root annotations.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	Funcs    map[string]*ProgFunc

	keys []string // sorted Funcs keys, the deterministic iteration order
}

// ProgFunc is one function declaration in the program graph.
type ProgFunc struct {
	Key   string
	Pkg   *Package
	Decl  *ast.FuncDecl
	Fn    *types.Func
	Calls []CallSite // static call sites in source order
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	Callee string // funcKey of the callee
	Pos    token.Pos
}

// String renders a function for diagnostics: pkgname.Func or
// pkgname.Recv.Method.
func (pf *ProgFunc) String() string {
	name := pf.Decl.Name.Name
	if r := recvTypeName(pf.Fn); r != "" {
		name = r + "." + name
	}
	return pf.Pkg.Types.Name() + "." + name
}

// BuildProgram indexes packages (which must share one FileSet — load
// them through a single Loader) into a call graph. When the same
// function key appears twice (a package loaded both as a target and as
// another target's dependency), the first occurrence wins, so pass
// target packages in preference order.
func BuildProgram(pkgs []*Package) *Program {
	pr := &Program{Funcs: make(map[string]*ProgFunc)}
	if len(pkgs) > 0 {
		pr.Fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		pr.Packages = append(pr.Packages, p)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if _, dup := pr.Funcs[key]; dup {
					continue
				}
				pf := &ProgFunc{Key: key, Pkg: p, Decl: fd, Fn: fn}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := p.calleeFunc(call); callee != nil {
						pf.Calls = append(pf.Calls, CallSite{Callee: funcKey(callee), Pos: call.Pos()})
					}
					return true
				})
				pr.Funcs[key] = pf
			}
		}
	}
	pr.keys = make([]string, 0, len(pr.Funcs))
	for k := range pr.Funcs {
		pr.keys = append(pr.keys, k)
	}
	sort.Strings(pr.keys)
	return pr
}

// funcKey is the cross-package identity of a function: package path,
// receiver type name (generic origin, pointer-stripped) and name, joined
// with "|" (never legal in Go identifiers or import paths in this tree).
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "|" + recvTypeName(fn) + "|" + fn.Name()
}

// recvTypeName returns the bare receiver type name of a method ("" for
// plain functions): *TensorOf[T] and TensorOf[float32] both map to
// "TensorOf".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Root and boundary annotations. A marker counts only where it starts a
// doc-comment line, after the "//" and optional spaces, so both the
// spaced and the directive comment forms work and prose that mentions a
// marker does not.
const (
	hotpathMarker = "fedlint:hotpath"       // root: nothing reachable may allocate
	detMarker     = "fedlint:deterministic" // root: all reachable code must be bit-reproducible
	detSafeMarker = "fedlint:detsafe"       // sanitizer: audited boundary, taint does not cross
	traceMarker   = "fedlint:trace"         // required trace kinds, e.g. fedlint:trace KindSchedule,KindSolver
)

// markerLine returns the rest of the first doc-comment line of fd that
// starts with marker, and whether there is one.
func markerLine(fd *ast.FuncDecl, marker string) (string, bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " \t")
		if rest, ok := strings.CutPrefix(text, marker); ok {
			return rest, true
		}
	}
	return "", false
}

// declMarker reports whether a function's doc comment carries the given
// fedlint marker.
func declMarker(fd *ast.FuncDecl, marker string) bool {
	_, ok := markerLine(fd, marker)
	return ok
}

// traceKindsRe captures the comma-separated kind list after the
// fedlint:trace marker. The Kind prefix is required of every name.
var traceKindsRe = regexp.MustCompile(`^\s+(Kind\w+(?:\s*,\s*Kind\w+)*)`)

// traceKindsAnnotation parses a fedlint:trace annotation off a doc
// comment, returning the required kind names and whether the annotation
// is present.
func traceKindsAnnotation(fd *ast.FuncDecl) ([]string, bool) {
	rest, ok := markerLine(fd, traceMarker)
	if !ok {
		return nil, false
	}
	m := traceKindsRe.FindStringSubmatch(rest)
	if m == nil {
		return nil, false
	}
	var kinds []string
	for _, k := range strings.Split(m[1], ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, k)
		}
	}
	return kinds, true
}

// rootsWith returns the keys of every function carrying any of the
// given markers, in deterministic (sorted-key) order.
func (pr *Program) rootsWith(markers ...string) []string {
	var roots []string
	for _, key := range pr.keys {
		pf := pr.Funcs[key]
		for _, m := range markers {
			if declMarker(pf.Decl, m) {
				roots = append(roots, key)
				break
			}
		}
	}
	return roots
}

// reachNode records how the flood first reached a function, so
// diagnostics can print the call path back to the responsible root.
type reachNode struct {
	key    string
	parent *reachNode
}

// rootNode walks a reach chain back to its root.
func rootNode(n *reachNode) *reachNode {
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// pathFrom renders the call chain "root → … → here" using display names.
func (pr *Program) pathFrom(n *reachNode) string {
	var names []string
	for ; n != nil; n = n.parent {
		names = append(names, pr.Funcs[n.key].String())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// flood BFS-walks the static call graph from the given roots (processed
// in order; the first root to reach a function claims it). Call sites
// suppressed for check via //fedlint:allow do not propagate, and callees
// for which cut returns true are not entered — that is how the detsafe
// sanitizer terminates the determinism walk.
func (pr *Program) flood(roots []string, check string, cut func(pf *ProgFunc) bool) map[string]*reachNode {
	reached := make(map[string]*reachNode)
	var queue []*reachNode
	for _, root := range roots {
		if _, ok := pr.Funcs[root]; !ok {
			continue
		}
		if _, seen := reached[root]; seen {
			continue
		}
		n := &reachNode{key: root}
		reached[root] = n
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		pf := pr.Funcs[n.key]
		for _, cs := range pf.Calls {
			callee, ok := pr.Funcs[cs.Callee]
			if !ok {
				continue // stdlib, interface method, or unloaded package
			}
			if _, seen := reached[cs.Callee]; seen {
				continue
			}
			if cut != nil && cut(callee) {
				continue
			}
			if pf.Pkg.suppressed(check, pr.Fset.Position(cs.Pos)) {
				continue
			}
			c := &reachNode{key: cs.Callee, parent: n}
			reached[cs.Callee] = c
			queue = append(queue, c)
		}
	}
	return reached
}

// sortedReach returns the reached keys in deterministic order.
func sortedReach(reached map[string]*reachNode) []string {
	keys := make([]string, 0, len(reached))
	for k := range reached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
