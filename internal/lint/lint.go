// Package lint implements fedlint, the project-specific static-analysis
// suite guarding the two invariants the training substrate is built on:
//
//  1. Determinism — runs are bit-identical for any worker or lane count
//     at a fixed seed (the parallel FL engines and the blocked GEMM core
//     both stake their correctness argument on it). The nondet pass keeps
//     hidden ambient state (global math/rand, wall clocks, unsorted map
//     iteration, un-joined goroutines, completion-order folds) out of the
//     determinism-critical packages and out of everything the call graph
//     reaches from a `// fedlint:deterministic` or hotpath root.
//  2. Allocation-free steady state — the training hot path (TrainBatch →
//     Forward/Backward → GEMM) allocates nothing once workspaces are
//     sized. The hotalloc pass turns that AllocsPerRun==0 property into a
//     per-line static guarantee over everything reachable from functions
//     annotated `// fedlint:hotpath`.
//
// Supporting passes catch the classic ways either invariant rots:
// floateq (exact ==/!= on floating-point operands outside tests),
// syncmisuse (wg.Add inside the spawned goroutine), goroutinebound and
// tracecomplete.
//
// fedlint checks only what the Go toolchain does not. By-value copies of
// lock-holding structs are go vet's copylocks pass, which runs in the
// same make check gate; which files form a package on the host platform
// (file-name GOOS/GOARCH suffixes, //go:build lines, in-package versus
// external tests) is go/build's answer, the go command's own.
//
// Every pass is one Analyzer over one Program: all loaded packages plus
// the static call graph joining them (program.go). Run is the driver.
//
// Everything here is stdlib-only: go/build + go/parser + go/types with a
// module-aware importer (load.go) that falls back to compiling the
// standard library from source, so the suite runs offline with no module
// downloads.
//
// Findings can be suppressed with a trailing or preceding comment:
//
//	//fedlint:allow floateq — exact zero is the sparsity sentinel
//
// The comment names one or more checks (comma-separated) and silences
// them on its own line and the line directly below it. It is the only
// way to suppress a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
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

// Package is one loaded, type-checked package. Files include the
// in-package _test.go files (the nondet benchmark carve-out needs to see
// test files to matter).
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow map[string]map[int]map[string]bool // filename → line → suppressed checks
}

// Analyzer is one named pass over a Program. Passes that check one
// package at a time walk pr.Packages; the reachability passes flood the
// call graph.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pr *Program) []Diagnostic
}

// All returns every fedlint analyzer in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{NonDet, FloatEq, SyncMisuse, HotAlloc, GoroutineBound, TraceComplete}
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

// Run is the fedlint driver. It loads every target path with its
// in-package tests and its external test package through l, so all of
// them share one FileSet, builds one Program over them, runs the
// analyzers and returns their findings in file/line/column order, with
// file names relative to l.ModDir.
func Run(l *Loader, paths []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		ext, err := l.LoadExternalTests(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if ext != nil {
			pkgs = append(pkgs, ext)
		}
	}
	pr := BuildProgram(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(pr)...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(l.ModDir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, nil
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

// reporter accumulates one pass's findings.
type reporter struct {
	check string
	diags []Diagnostic
	seen  map[token.Pos]bool
}

// reportf reports at pos unless an //fedlint:allow directive in p covers
// it; each position reports at most once (several roots may reach the
// same source — the first, in deterministic root order, wins).
func (r *reporter) reportf(p *Package, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if r.seen[pos] || p.suppressed(r.check, position) {
		return
	}
	if r.seen == nil {
		r.seen = make(map[token.Pos]bool)
	}
	r.seen[pos] = true
	r.diags = append(r.diags, Diagnostic{Pos: position, Check: r.check, Message: fmt.Sprintf(format, args...)})
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
