// Command fedlint runs the project's static-analysis suite (internal/lint)
// over the module: per-package syntactic passes plus the interprocedural
// analyzers built on the repo-wide call graph, all keeping the
// determinism and allocation-free invariants from regressing silently.
//
//	fedlint                       # lint ./... against the baseline
//	fedlint ./internal/fl ./internal/tensor
//	fedlint -checks floateq,detflow
//	fedlint -list                 # describe the passes and where they apply
//	fedlint -json                 # machine-readable findings
//	fedlint -github               # GitHub Actions ::error annotations
//	fedlint -write-baseline       # accept all current findings
//
// The nondet pass runs only over the determinism-critical packages
// (internal/fl — the engines, the async event loop included —
// internal/sched, internal/tensor, internal/nn); every other pass runs
// everywhere. The interprocedural passes (detflow, goroutinebound,
// floatorder, tracecomplete, hotalloc) see one call graph spanning all
// loaded packages, including external test packages, so a hot-path or
// determinism violation hiding behind a cross-package call is still found.
//
// Findings are gated by the accepted-findings ledger at
// .fedlint-baseline.json (module root, override with -baseline): fedlint
// exits 1 only on findings NOT in the baseline, and 2 on usage or load
// errors, so `make lint` (and the CI lint lane) fail exactly on new
// regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fedsched/internal/lint"
)

func main() {
	var (
		checks        = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list          = flag.Bool("list", false, "list the available checks and exit")
		includeTests  = flag.Bool("tests", true, "also analyze _test.go files (in-package and external)")
		jsonOut       = flag.Bool("json", false, "emit findings as JSON")
		githubOut     = flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
		baselinePath  = flag.String("baseline", "", "accepted-findings ledger (default: <module root>/.fedlint-baseline.json)")
		writeBaseline = flag.Bool("write-baseline", false, "write all current findings to the baseline and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fedlint [flags] [package-dir ...]   (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			scope := "all packages"
			if a.Name == "nondet" {
				scope = "determinism-critical packages only"
			}
			if a.Name == "hotalloc" {
				scope = "subsumed by the whole-program pass of the same name"
			}
			fmt.Printf("%-16s %s [%s]\n", a.Name, a.Doc, scope)
		}
		for _, a := range lint.AllProgram() {
			fmt.Printf("%-16s %s [whole program]\n", a.Name, a.Doc)
		}
		return
	}

	pkgAnalyzers, progAnalyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fatalf("%v", err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	modPath, modDir, err := lint.ModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	if *baselinePath == "" {
		*baselinePath = filepath.Join(modDir, ".fedlint-baseline.json")
	}

	paths, err := targetPaths(flag.Args(), modPath, modDir)
	if err != nil {
		fatalf("%v", err)
	}

	// Load every target (plus its external test package) through one
	// Loader so all packages share a FileSet and the call graph spans
	// the whole set.
	loader := lint.NewLoader(modPath, modDir)
	loader.IncludeTests = *includeTests
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatalf("%v", err)
		}
		pkgs = append(pkgs, pkg)
		if *includeTests {
			ext, err := loader.LoadExternalTests(path)
			if err != nil {
				fatalf("%v", err)
			}
			if ext != nil {
				pkgs = append(pkgs, ext)
			}
		}
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range pkgAnalyzers {
			if a.Name == "nondet" && !lint.NonDetScope(pkg.Path, modPath) {
				continue
			}
			diags = append(diags, a.Run(pkg)...)
		}
	}
	if len(progAnalyzers) > 0 {
		pr := lint.BuildProgram(pkgs)
		for _, a := range progAnalyzers {
			diags = append(diags, a.Run(pr)...)
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
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})

	if *writeBaseline {
		data, err := lint.MarshalBaseline(diags, modDir)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*baselinePath, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "fedlint: wrote %d finding(s) to %s\n", len(diags), lint.RelFile(*baselinePath, modDir))
		return
	}

	baseline, err := lint.LoadBaseline(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	fresh, accepted := baseline.Filter(diags, modDir)

	switch {
	case *jsonOut:
		emitJSON(os.Stdout, fresh, accepted, modDir)
	case *githubOut:
		emitGitHub(os.Stdout, fresh, modDir)
	default:
		for _, d := range fresh {
			d.Pos.Filename = lint.RelFile(d.Pos.Filename, modDir)
			fmt.Println(d.String())
		}
	}
	if len(accepted) > 0 {
		fmt.Fprintf(os.Stderr, "fedlint: %d baselined finding(s) suppressed\n", len(accepted))
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "fedlint: %d new finding(s) — fix them, add a fedlint:allow with a justification, or re-run with -write-baseline\n", len(fresh))
		os.Exit(1)
	}
}

// selectAnalyzers resolves -checks into per-package and whole-program
// analyzer sets. By default every pass runs, except the per-package
// hotalloc pass: the whole-program analyzer of the same name subsumes it
// (same sites, plus cross-package reachability). Naming a check
// explicitly resolves whole-program first, so "hotalloc" means the
// interprocedural pass.
func selectAnalyzers(checks string) ([]*lint.Analyzer, []*lint.ProgramAnalyzer, error) {
	if checks == "" {
		var pkgAs []*lint.Analyzer
		for _, a := range lint.All() {
			if a.Name != "hotalloc" {
				pkgAs = append(pkgAs, a)
			}
		}
		return pkgAs, lint.AllProgram(), nil
	}
	var (
		pkgAs  []*lint.Analyzer
		progAs []*lint.ProgramAnalyzer
	)
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		if pa := lint.ProgramByName(name); pa != nil {
			progAs = append(progAs, pa)
			continue
		}
		if a := lint.ByName(name); a != nil {
			pkgAs = append(pkgAs, a)
			continue
		}
		return nil, nil, fmt.Errorf("unknown check %q (run fedlint -list)", name)
	}
	return pkgAs, progAs, nil
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Check     string `json:"check"`
	File      string `json:"file"` // module-relative, slash-separated
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined"`
}

// emitJSON writes all findings — fresh and baselined — as one JSON
// array, so tooling sees the full picture while the exit code still
// reflects only the fresh ones.
func emitJSON(w *os.File, fresh, accepted []lint.Diagnostic, modDir string) {
	out := make([]jsonFinding, 0, len(fresh)+len(accepted))
	add := func(ds []lint.Diagnostic, baselined bool) {
		for _, d := range ds {
			out = append(out, jsonFinding{
				Check: d.Check, File: lint.RelFile(d.Pos.Filename, modDir),
				Line: d.Pos.Line, Col: d.Pos.Column,
				Message: d.Message, Baselined: baselined,
			})
		}
	}
	add(fresh, false)
	add(accepted, true)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// emitGitHub writes fresh findings as GitHub Actions error annotations,
// which the Actions runner attaches to the diff view.
func emitGitHub(w *os.File, fresh []lint.Diagnostic, modDir string) {
	for _, d := range fresh {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s: %s\n",
			lint.RelFile(d.Pos.Filename, modDir), d.Pos.Line, d.Pos.Column,
			d.Check, githubEscape(d.Message))
	}
}

// githubEscape encodes the characters the Actions annotation format
// treats as delimiters.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// targetPaths expands the command-line arguments ("./...", package
// directories) into module import paths.
func targetPaths(args []string, modPath, modDir string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var paths []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := lint.PackageDirs(modPath, modDir)
			if err != nil {
				return nil, err
			}
			paths = append(paths, all...)
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(modDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("fedlint: %s is outside module %s", arg, modPath)
		}
		if strings.HasSuffix(arg, "/...") {
			sub, err := lint.PackageDirs(modPath+"/"+filepath.ToSlash(rel), abs)
			if err != nil {
				return nil, err
			}
			paths = append(paths, sub...)
			continue
		}
		if rel == "." {
			paths = append(paths, modPath)
		} else {
			paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
		}
	}
	return paths, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedlint: "+format+"\n", args...)
	os.Exit(2)
}
