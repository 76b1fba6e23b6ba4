package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fixture names the analyzer a fixture package under testdata/src
// exercises and the packages loaded for it; // want expectations are parsed from every listed package
// directory, so cross-package findings (detflowdep, hotallocdep) anchor
// in the file where they are reported.
type fixture struct {
	analyzer *Analyzer
	pkgs     []string
}

// fixturePasses are the fixtures of the passes that check one package
// at a time, plus hotalloc's single-package fixture.
var fixturePasses = map[string]fixture{
	"nondet":     {NonDet, []string{"nondet"}},
	"hotalloc":   {HotAlloc, []string{"hotalloc"}},
	"floateq":    {FloatEq, []string{"floateq"}},
	"syncmisuse": {SyncMisuse, []string{"syncmisuse"}},
}

// fixtureProgramPasses are the fixtures whose findings depend on edges
// between several loaded packages or between functions.
var fixtureProgramPasses = map[string]fixture{
	"detflow":        {NonDet, []string{"detflow", "detflowdep"}},
	"goroutinebound": {GoroutineBound, []string{"goroutinebound", "tensor"}},
	"floatorder":     {NonDet, []string{"floatorder"}},
	"tracecomplete":  {TraceComplete, []string{"tracecomplete", "trace"}},
	"hotallocx":      {HotAlloc, []string{"hotallocx", "hotallocdep"}},
}

// fixtureLoader builds a loader whose Aux table maps every directory
// under testdata/src to its bare name, so fixtures import each other
// (and the tensor stub) with single-segment paths.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("", base)
	l.Aux = make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			l.Aux[e.Name()] = filepath.Join(base, e.Name())
		}
	}
	return l
}

// wantRe matches an expectation comment; each backtick-quoted argument
// is a regexp the diagnostic message on that line must satisfy.
var (
	wantRe    = regexp.MustCompile("//\\s*want\\s+(.+)$")
	wantArgRe = regexp.MustCompile("`([^`]+)`")
)

type wantKey struct {
	file string // base name
	line int
}

// parseWants reads the // want annotations out of every fixture file in
// the given directories, keyed by file:line. At least one annotation
// must exist across the union (individual directories may have none —
// stubs shared between fixtures stay expectation-free).
func parseWants(t *testing.T, dirs ...string) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment with no backtick-quoted pattern", e.Name(), i+1)
				}
				key := wantKey{file: e.Name(), line: i + 1}
				for _, a := range args {
					re, err := regexp.Compile(a[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, a[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want annotations found in %v", dirs)
	}
	return wants
}

// matchWants checks diagnostics against expectations exactly: every want
// must be matched by a diagnostic on its line, and every diagnostic must
// be claimed by a want.
func matchWants(t *testing.T, got []Diagnostic, wants map[wantKey][]*regexp.Regexp) {
	t.Helper()
	matched := make(map[string]bool)
	for _, d := range got {
		key := wantKey{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line}
		ok := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched[fmt.Sprintf("%s:%d:%d", key.file, key.line, i)] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", key.file, key.line, d.Message)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[fmt.Sprintf("%s:%d:%d", key.file, key.line, i)] {
				t.Errorf("missing diagnostic at %s:%d matching %q", key.file, key.line, re)
			}
		}
	}
}

// runFixtures runs each fixture's analyzer through the driver over a
// fresh fixture loader and checks the diagnostics against the // want
// annotations exactly: every want must be matched by a diagnostic on its
// line, and every diagnostic must be claimed by a want.
func runFixtures(t *testing.T, fixtures map[string]fixture) {
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fx := fixtures[name]
		t.Run(name, func(t *testing.T) {
			l := fixtureLoader(t)
			var dirs []string
			for _, pn := range fx.pkgs {
				dirs = append(dirs, l.Aux[pn])
			}
			got, err := Run(l, fx.pkgs, []*Analyzer{fx.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			matchWants(t, got, parseWants(t, dirs...))
		})
	}
}

// TestFixtures runs the single-package fixtures.
func TestFixtures(t *testing.T) { runFixtures(t, fixturePasses) }

// TestProgramFixtures runs the fixtures built from several packages or
// reached through the call graph.
func TestProgramFixtures(t *testing.T) { runFixtures(t, fixtureProgramPasses) }

// TestSuppressionIsPerCheck verifies an //fedlint:allow directive only
// silences the checks it names: the floateq fixture's allow lines do
// not hide nondet findings and vice versa.
func TestSuppressionIsPerCheck(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Load("floateq")
	if err != nil {
		t.Fatal(err)
	}
	// zero() carries "//fedlint:allow floateq" on its comparison line.
	pos := findAllowLine(t, l.Aux["floateq"], "floateq.go", "fedlint:allow floateq")
	if !pkg.suppressed("floateq", pos) {
		t.Errorf("floateq not suppressed at %s:%d, want suppressed", pos.Filename, pos.Line)
	}
	if pkg.suppressed("nondet", pos) {
		t.Errorf("nondet suppressed at %s:%d by a floateq-only allow", pos.Filename, pos.Line)
	}
}

// findAllowLine returns the position of the first line of the fixture
// file containing the given directive text.
func findAllowLine(t *testing.T, dir, file, directive string) token.Position {
	t.Helper()
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, directive) {
			return token.Position{Filename: path, Line: i + 1}
		}
	}
	t.Fatalf("no %q directive in %s", directive, path)
	return token.Position{}
}

// TestPackageDirs checks the ./... expansion finds real packages and
// skips testdata trees (the seeded fixtures must never reach the gate).
func TestPackageDirs(t *testing.T) {
	modPath, modDir, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(modPath, modDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("PackageDirs returned a testdata package: %s", d)
		}
		if d == modPath+"/internal/lint" {
			found = true
		}
	}
	if !found {
		t.Errorf("PackageDirs did not return %s/internal/lint; got %d packages", modPath, len(dirs))
	}
}

// TestRepoTreeClean locks the acceptance criterion in place: the fedlint
// driver, every pass over every package (external test packages like
// the root bench_test.go included), reports nothing on the module.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	modPath, modDir, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := PackageDirs(modPath, modDir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(NewLoader(modPath, modDir), paths, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}

// TestLoadExternalTests checks the second-pass loader actually picks up
// the root external test package (bench_test.go, package fedsched_test)
// — before LoadExternalTests existed those files were never analyzed —
// and returns nil for directories whose tests are in-package.
func TestLoadExternalTests(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the root package and its imports from source")
	}
	modPath, modDir, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(modPath, modDir)
	pkg, err := l.LoadExternalTests(modPath)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("LoadExternalTests(%s) = nil; bench_test.go declares package fedsched_test", modPath)
	}
	if got := pkg.Types.Name(); got != "fedsched_test" {
		t.Errorf("external test package name = %q, want fedsched_test", got)
	}
	if len(pkg.Files) == 0 {
		t.Error("external test package has no files")
	}
	none, err := l.LoadExternalTests(modPath + "/internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Errorf("internal/lint has no external test package, got %v", none.Path)
	}
}

// TestLoaderMatchesGoList holds the loader's file selection to the go
// command's: for every package under the module, Load parses exactly
// `go list`'s GoFiles and TestGoFiles, and LoadExternalTests exactly its
// XTestGoFiles — the GOOS/GOARCH-suffixed GEMM kernels, the
// race-tagged test pair and the root external test package included.
func TestLoaderMatchesGoList(t *testing.T) {
	modPath, modDir, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := PackageDirs(modPath, modDir)
	if err != nil {
		t.Fatal(err)
	}
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goCmd, append([]string{"list", "-json"}, paths...)...)
	cmd.Dir = modDir
	// GOFLAGS could carry -tags, which go/build's default context, and so
	// the loader, never sees.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath                         string
		GoFiles, TestGoFiles, XTestGoFiles []string
	}
	want := make(map[string]listed)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		want[p.ImportPath] = p
	}
	// parsed lists the base names of a package's files, sorted; nil for
	// no package.
	parsed := func(pkg *Package) []string {
		var ns []string
		if pkg != nil {
			for _, f := range pkg.Files {
				ns = append(ns, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
			}
		}
		slices.Sort(ns)
		return ns
	}
	l := NewLoader(modPath, modDir)
	for _, path := range paths {
		w, ok := want[path]
		if !ok {
			t.Errorf("go list did not report %s", path)
			continue
		}
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		exp := slices.Concat(w.GoFiles, w.TestGoFiles)
		slices.Sort(exp)
		if got := parsed(pkg); !slices.Equal(got, exp) {
			t.Errorf("Load(%s) parsed %v; go list: %v", path, got, exp)
		}
		ext, err := l.LoadExternalTests(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := parsed(ext); !slices.Equal(got, w.XTestGoFiles) {
			t.Errorf("LoadExternalTests(%s) parsed %v; go list: %v", path, got, w.XTestGoFiles)
		}
	}
}
