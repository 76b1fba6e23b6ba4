// Command fedlint runs the project's static-analysis suite (internal/lint)
// over the module, keeping the determinism and allocation-free
// invariants from regressing silently.
//
//	fedlint                       # lint ./...
//	fedlint ./internal/fl ./internal/tensor
//	fedlint -checks floateq,nondet
//	fedlint -list                 # describe the passes
//	fedlint -github               # GitHub Actions ::error annotations
//
// Every pass sees one call graph spanning all loaded packages, external
// test packages included, so a hot-path or determinism violation hiding
// behind a cross-package call is still found. The nondet pass floods
// from every function of the determinism-critical packages (fl, sched,
// tensor, nn) as well as from the marked roots.
//
// fedlint exits 1 on any finding and 2 on usage or load errors. A
// deliberate exception is suppressed in place with a justified
// //fedlint:allow <check> comment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fedsched/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedlint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is fedlint over the module enclosing dir. It returns the exit
// status: 0 clean, 1 findings, 2 usage or load error.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	github := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fedlint [flags] [package-dir ...]   (default ./...)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	diags, err := findings(dir, fs.Args(), *checks)
	if err != nil {
		fmt.Fprintf(stderr, "fedlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		if *github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s: %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, githubEscape(d.Message))
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fedlint: %d finding(s) — fix them or add a //fedlint:allow with a justification\n", len(diags))
		return 1
	}
	return 0
}

// findings resolves the checks and target arguments and runs the suite.
func findings(dir string, args []string, checks string) ([]lint.Diagnostic, error) {
	analyzers := lint.All()
	if checks != "" {
		analyzers = nil
		for _, name := range strings.Split(checks, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				return nil, fmt.Errorf("unknown check %q (run fedlint -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}
	modPath, modDir, err := lint.ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	paths, err := targetPaths(dir, args, modPath, modDir)
	if err != nil {
		return nil, err
	}
	return lint.Run(lint.NewLoader(modPath, modDir), paths, analyzers)
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
// directories, relative to dir) into module import paths.
func targetPaths(dir string, args []string, modPath, modDir string) ([]string, error) {
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
		abs := strings.TrimSuffix(arg, "/...")
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, abs)
		}
		rel, err := filepath.Rel(modDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", arg, modPath)
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
