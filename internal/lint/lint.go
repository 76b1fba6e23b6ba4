// Package lint implements fedlint, the project-specific static-analysis
// suite guarding the two invariants the training substrate is built on:
//
//  1. Determinism — runs are bit-identical for any worker or lane count
//     at a fixed seed (the parallel FL engines and the blocked GEMM core
//     both stake their correctness argument on it). The nondet pass keeps
//     hidden ambient state (global math/rand, wall clocks, unsorted map
//     iteration) out of the determinism-critical packages.
//  2. Allocation-free steady state — the training hot path (TrainBatch →
//     Forward/Backward → GEMM) allocates nothing once workspaces are
//     sized. The hotalloc pass turns that AllocsPerRun==0 property into a
//     per-line static guarantee over functions annotated
//     `// fedlint:hotpath` and their intra-package callees.
//
// Two supporting passes catch the classic ways either invariant rots:
// floateq (exact ==/!= on floating-point operands outside tests) and
// syncmisuse (wg.Add inside the spawned goroutine, by-value copies of
// lock-holding structs).
//
// Everything here is stdlib-only: go/parser + go/types with a module-aware
// importer (load.go) that falls back to compiling the standard library
// from source, so the suite runs offline with no module downloads.
//
// Findings can be suppressed with a trailing or preceding comment:
//
//	//fedlint:allow floateq — exact zero is the sparsity sentinel
//
// The comment names one or more checks (comma-separated) and silences
// them on its own line and the line directly below it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one loaded, type-checked package — the unit every analyzer
// operates on. Files may include in-package _test.go files when the
// loader was asked for them (the nondet benchmark carve-out needs to see
// test files to matter).
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow map[string]map[int]map[string]bool // filename → line → suppressed checks
}

// Analyzer is one named pass over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// All returns the four fedlint analyzers in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{NonDet, HotAlloc, FloatEq, SyncMisuse}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// NonDetPackages are the module-relative package paths whose results
// must be bit-identical across runs, workers and lanes — the scope of
// the nondet pass. Everything the FL engines touch numerically is here;
// the experiment drivers deliberately are not (they time wall clocks for
// their report tables). Shared by the fedlint driver and the repo-gate
// test.
var NonDetPackages = map[string]bool{
	"internal/fl":     true,
	"internal/sched":  true,
	"internal/tensor": true,
	"internal/nn":     true,
}

// NonDetScope reports whether the package at import path — possibly an
// external test package carrying the loader's "_test" path suffix —
// falls inside the nondet scope.
func NonDetScope(path, modPath string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
	rel = strings.TrimSuffix(rel, "_test")
	return NonDetPackages[rel]
}

// allowRe matches a suppression comment. The leading "//" is already
// stripped by the time we match (comment.Text trims it), so the pattern
// anchors on the directive itself.
var allowRe = regexp.MustCompile(`^\s*fedlint:allow\s+([A-Za-z0-9_,\-]+)`)

// buildAllow indexes every //fedlint:allow comment in the package. A
// directive suppresses the named checks on the comment's own line and on
// the following line, covering both the trailing and the preceding
// placement without needing to know which statement it belongs to.
func (p *Package) buildAllow() {
	p.allow = make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.allow[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					p.allow[pos.Filename] = byLine
				}
				for _, check := range strings.Split(m[1], ",") {
					check = strings.TrimSpace(check)
					if check == "" {
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = make(map[string]bool)
						}
						byLine[line][check] = true
					}
				}
			}
		}
	}
}

// suppressed reports whether a finding of check at pos is silenced by an
// //fedlint:allow directive.
func (p *Package) suppressed(check string, pos token.Position) bool {
	if p.allow == nil {
		p.buildAllow()
	}
	byLine := p.allow[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][check]
}

// reporter accumulates diagnostics for one pass, applying suppression.
type reporter struct {
	p     *Package
	check string
	diags []Diagnostic
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	position := r.p.Fset.Position(pos)
	if r.p.suppressed(r.check, position) {
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: position, Check: r.check, Message: fmt.Sprintf(format, args...)})
}

// done returns the pass's findings in file/line order.
func (r *reporter) done() []Diagnostic {
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return r.diags
}

// isTestFile reports whether the file enclosing pos is a _test.go file.
func (p *Package) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pkgNameOf resolves an identifier to the imported package it names, or
// nil when it is not a package qualifier.
func (p *Package) pkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// calleeFunc resolves the static callee of a call expression to its
// *types.Func, or nil for builtins, conversions and dynamic calls
// (function values, interface methods resolve to the abstract method).
// Explicitly instantiated generic calls (kernel[float32](…) parses as an
// *ast.IndexExpr around the callee, kernel[A, B](…) as an
// *ast.IndexListExpr) are unwrapped to the generic origin function, and
// the result is always folded to its Origin — method calls on an
// instantiated receiver (opt.Step where opt is *SGDOf[float32]) resolve
// in Info.Uses to the instantiated method object, which is not the one
// Info.Defs records for the declaration; without the fold the call-graph
// edge silently goes dark.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func (p *Package) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }
