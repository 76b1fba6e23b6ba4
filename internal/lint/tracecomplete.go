package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// TraceComplete checks trace-schema coverage statically, so the golden
// traces cannot silently lose event kinds when a new scheduler or
// engine lands:
//
//   - A function annotated `// fedlint:trace KindA,KindB` must reach —
//     through the static call graph — a use of each named trace.Kind
//     constant. The four FL engine entry points and the solver
//     schedulers carry these annotations.
//   - Every concrete implementation of a package-local `Scheduler`
//     interface (a named type with a Schedule method satisfying it)
//     must statically reach trace.KindSchedule from its Schedule
//     method, unless the method carries its own fedlint:trace
//     annotation (which then governs) or an //fedlint:allow
//     tracecomplete directive.
//
// A "use" is any mention of the constant — emitting an Event with that
// Kind, comparing against it inside an emit helper — in the function or
// anything it statically calls. Kind constants are recognized by type:
// a constant whose named type is Kind declared in a package named
// trace (the real trace package, or the fixture stub).
var TraceComplete = &Analyzer{
	Name: "tracecomplete",
	Doc:  "fedlint:trace annotations and Scheduler implementations must statically emit their required trace kinds",
	Run:  runTraceComplete,
}

func runTraceComplete(pr *Program) []Diagnostic {
	r := &reporter{check: "tracecomplete"}

	// Kind-constant names each function mentions directly.
	own := make(map[string]map[string]bool)
	for _, key := range pr.keys {
		pf := pr.Funcs[key]
		kinds := kindsMentioned(pf)
		if len(kinds) > 0 {
			own[key] = kinds
		}
	}

	// reachKinds memoizes the union of kind names over the static
	// reachability closure of one function.
	memo := make(map[string]map[string]bool)
	var reachKinds func(key string, onStack map[string]bool) map[string]bool
	reachKinds = func(key string, onStack map[string]bool) map[string]bool {
		if m, ok := memo[key]; ok {
			return m
		}
		if onStack[key] {
			return nil // cycle: the caller's union already covers it
		}
		onStack[key] = true
		defer delete(onStack, key)
		out := make(map[string]bool)
		for k := range own[key] {
			out[k] = true
		}
		if pf, ok := pr.Funcs[key]; ok {
			for _, cs := range pf.Calls {
				if _, ok := pr.Funcs[cs.Callee]; !ok {
					continue
				}
				for k := range reachKinds(cs.Callee, onStack) {
					out[k] = true
				}
			}
		}
		memo[key] = out
		return out
	}

	// The trace package in this program (if loaded) validates kind names.
	var tracePkg *Package
	for _, p := range pr.Packages {
		if p.Types.Name() == "trace" {
			tracePkg = p
			break
		}
	}

	// Rule 1: explicit fedlint:trace annotations.
	for _, key := range pr.keys {
		pf := pr.Funcs[key]
		required, ok := traceKindsAnnotation(pf.Decl)
		if !ok {
			continue
		}
		got := reachKinds(key, map[string]bool{})
		for _, kind := range required {
			if tracePkg != nil {
				if obj := tracePkg.Types.Scope().Lookup(kind); obj == nil || !isKindConst(obj) {
					r.reportf(pf.Pkg, pf.Decl.Name.Pos(), "fedlint:trace on %s names %s, which is not a trace.Kind constant", pf.String(), kind)
					continue
				}
			}
			if !got[kind] {
				r.reportf(pf.Pkg, pf.Decl.Name.Pos(), "%s is annotated fedlint:trace %s but no static call path emits trace.%s; emit the event or update the annotation", pf.String(), strings.Join(required, ","), kind)
			}
		}
	}

	// Rule 2: Scheduler implementations must reach KindSchedule.
	for _, p := range pr.Packages {
		iface := schedulerInterface(p)
		if iface == nil {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			key := p.Path + "|" + name + "|Schedule"
			pf, ok := pr.Funcs[key]
			if !ok {
				continue // method promoted or declared elsewhere
			}
			if _, annotated := traceKindsAnnotation(pf.Decl); annotated {
				continue // rule 1 already governs this method
			}
			if !reachKinds(key, map[string]bool{})["KindSchedule"] {
				r.reportf(pf.Pkg, pf.Decl.Name.Pos(), "%s implements Scheduler but no static call path of Schedule emits trace.KindSchedule; record the assignment (emitSchedule) so golden traces keep covering it", name)
			}
		}
	}
	return r.diags
}

// kindsMentioned collects the trace.Kind constant names a function body
// refers to.
func kindsMentioned(pf *ProgFunc) map[string]bool {
	kinds := make(map[string]bool)
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := pf.Pkg.Info.Uses[id]; ok && isKindConst(obj) {
			kinds[obj.Name()] = true
		}
		return true
	})
	if len(kinds) == 0 {
		return nil
	}
	return kinds
}

// isKindConst reports whether obj is a constant of a named type Kind
// declared in a package named trace.
func isKindConst(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Name() != "Kind" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "trace"
}

// schedulerInterface returns the package-scope Scheduler interface type
// with a Schedule method, or nil.
func schedulerInterface(p *Package) *types.Interface {
	tn, ok := p.Types.Scope().Lookup("Scheduler").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Schedule" {
			return iface
		}
	}
	return nil
}
