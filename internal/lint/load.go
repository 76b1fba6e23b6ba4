package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
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

// parse reads the buildable .go files of the package in dir selected by
// mode. For the primary modes, external test files (their parsed package
// name ends in "_test") are filtered out after parsing: they belong to a
// separate package that cannot join the primary type-check. In
// parseExternalTests mode the selection inverts and an empty result is
// not an error — most directories have no external test package.
func (l *Loader) parse(dir string, mode parseMode) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if mode == parseNoTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if mode == parseExternalTests && !strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if !shouldBuild(name, src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		external := strings.HasSuffix(f.Name.Name, "_test")
		if external != (mode == parseExternalTests) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 && mode != parseExternalTests {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return files, nil
}

// shouldBuild reports whether a file is selected on the analysis
// platform — the host's GOOS/GOARCH, same as the build the linted
// binaries ship in. Both constraint forms the repo can contain are
// honoured: the GOOS/GOARCH filename suffix convention and a //go:build
// line above the package clause (e.g. the float32 GEMM micro-kernel's
// amd64/noasm pair, which declare the same symbols and must never be
// type-checked together).
func shouldBuild(name string, src []byte) bool {
	if !goodOSArchFile(name) {
		return false
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return true
			}
			return expr.Eval(satisfiedTag)
		}
		if strings.HasPrefix(line, "package ") {
			break
		}
	}
	return true
}

// satisfiedTag reports whether one //go:build tag holds on the analysis
// platform.
func satisfiedTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// knownOS and knownArch are the GOOS/GOARCH values recognised in
// filename suffixes. Only membership matters: an unlisted suffix is an
// ordinary name, a listed one must match the host to build.
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// goodOSArchFile applies the name_GOOS.go / name_GOARCH.go /
// name_GOOS_GOARCH.go filename convention against the host platform.
func goodOSArchFile(name string) bool {
	name = strings.TrimSuffix(name, ".go")
	name = strings.TrimSuffix(name, "_test")
	parts := strings.Split(name, "_")
	if len(parts) >= 3 {
		os, arch := parts[len(parts)-2], parts[len(parts)-1]
		if knownOS[os] && knownArch[arch] {
			return os == runtime.GOOS && arch == runtime.GOARCH
		}
	}
	if len(parts) >= 2 {
		switch last := parts[len(parts)-1]; {
		case knownOS[last]:
			return last == runtime.GOOS
		case knownArch[last]:
			return last == runtime.GOARCH
		}
	}
	return true
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
