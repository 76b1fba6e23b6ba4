package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages for analysis without consulting
// the network or the go command. Import resolution is three-tiered:
// paths under ModPath resolve inside ModDir, paths in Aux resolve to
// explicit directories (the fixture mechanism used by the analyzer
// tests), and everything else is treated as standard library and handed
// to go/importer's source importer, which type-checks GOROOT/src
// directly — slower than export data but dependency-free and offline.
type Loader struct {
	Fset    *token.FileSet
	ModPath string            // module path, e.g. "fedsched"; "" disables module resolution
	ModDir  string            // absolute directory of the module root
	Aux     map[string]string // extra import path → directory overrides

	std  types.ImporterFrom
	deps map[string]*types.Package
}

// NewLoader returns a loader rooted at the module modPath/modDir.
func NewLoader(modPath, modDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		deps:    make(map[string]*types.Package),
	}
}

// dirFor maps an import path to a directory, or "" when the path is not
// module-local (and must be a standard-library import).
func (l *Loader) dirFor(path string) string {
	if dir, ok := l.Aux[path]; ok {
		return dir
	}
	if l.ModPath != "" {
		if path == l.ModPath {
			return l.ModDir
		}
		if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
			return filepath.Join(l.ModDir, filepath.FromSlash(rest))
		}
	}
	return ""
}

// parseMode selects which of a directory's buildable files form the
// package under analysis.
type parseMode int

const (
	parseNoTests       parseMode = iota // library files only
	parseWithTests                      // library + in-package _test.go files
	parseExternalTests                  // only the package foo_test files
)

// parse reads the files of the package in dir that mode selects. The
// selection is go/build's, on the host platform: the GOOS/GOARCH
// file-name suffixes and //go:build lines the go command applies (the
// float32 GEMM micro-kernel's amd64/noasm pair declare the same symbols
// and must never be type-checked together), and the split of _test.go
// files into in-package and external (package foo_test) tests. A
// directory import never runs the go command, so loading stays offline.
// In parseExternalTests mode an empty result is not an error — most
// directories have no external test package.
func (l *Loader) parse(dir string, mode parseMode) ([]*ast.File, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if err != nil && !(mode == parseExternalTests && errors.As(err, &noGo)) {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	switch mode {
	case parseNoTests:
		names = bp.GoFiles
	case parseWithTests:
		names = append(bp.GoFiles, bp.TestGoFiles...)
		sort.Strings(names)
	case parseExternalTests:
		names = bp.XTestGoFiles
	}
	if len(names) == 0 && mode != parseExternalTests {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path, resolving imports through the
// loader itself.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

// Load parses and type-checks the package with the given import path,
// in-package _test.go files included, for analysis. External test
// packages (package foo_test) cannot join that type-check;
// LoadExternalTests loads them as their own analysis unit.
func (l *Loader) Load(path string) (*Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %s is not a module-local package", path)
	}
	files, err := l.parse(dir, parseWithTests)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadExternalTests loads the external test package (package foo_test)
// of the directory at path, or nil when the directory has none. External
// test files — the root bench_test.go is the repo's one example — form a
// package of their own that imports the library under test, so they are
// type-checked as a separate analysis unit whose Path carries a "_test"
// suffix. Before this second pass existed they were skipped entirely,
// leaving hotpath-annotated benchmark helpers unanalyzed.
func (l *Loader) LoadExternalTests(path string) (*Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %s is not a module-local package", path)
	}
	files, err := l.parse(dir, parseExternalTests)
	if err != nil || len(files) == 0 {
		return nil, err
	}
	tpkg, info, err := l.check(path+"_test", files)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path + "_test", Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// importDep resolves an import encountered while type-checking. Module
// and Aux packages load without test files and are cached; anything else
// goes to the source importer.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		p, err := l.std.ImportFrom(path, l.ModDir, 0)
		if err == nil {
			l.deps[path] = p
		}
		return p, err
	}
	files, err := l.parse(dir, parseNoTests)
	if err != nil {
		return nil, err
	}
	tpkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.deps[path] = tpkg
	return tpkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModuleRoot walks upward from dir to the enclosing go.mod and returns
// the module path and root directory.
func ModuleRoot(dir string) (modPath, modDir string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// PackageDirs returns the import paths of every package directory under
// the module root, skipping testdata, vendor and hidden directories —
// the expansion of the "./..." pattern.
func PackageDirs(modPath, modDir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != modDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
				rel, err := filepath.Rel(modDir, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, modPath)
				} else {
					paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
