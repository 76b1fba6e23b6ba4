package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fedsched/internal/lint"
)

// TestDriverContract runs fedlint over a throwaway module: one exact
// float comparison is one annotation and exit 1, the fixed module is
// silent with exit 0, and an unknown check name is a usage error.
func TestDriverContract(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("m.go", "package m\n\nfunc Eq(a, b float64) bool {\n\treturn a == b\n}\n")

	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-github"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on a float ==, want 1; stderr: %s", code, &stderr)
	}
	want := regexp.MustCompile(`^::error file=m\.go,line=4,col=11::floateq: == compares floating-point values exactly; .*\n$`)
	if !want.Match(stdout.Bytes()) {
		t.Errorf("stdout = %q, want exactly one floateq annotation at m.go:4:11", &stdout)
	}

	write("m.go", "package m\n\nfunc Eq(a, b int) bool {\n\treturn a == b\n}\n")
	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"-github"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("fixed module: exit %d, stdout %q; want 0 and nothing", code, &stdout)
	}

	if code := run(dir, []string{"-checks", "floateq,nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown check: exit %d, want 2", code)
	}
}

// TestDocsListEveryCheck holds the two tables that describe the passes
// — README's fedlint table and DESIGN §9.2's — to lint.All(): each names
// every analyzer and nothing else.
func TestDocsListEveryCheck(t *testing.T) {
	var want []string
	for _, a := range lint.All() {
		want = append(want, a.Name)
	}
	slices.Sort(want)
	_, modDir, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct {
		file, header string
		row          *regexp.Regexp
	}{
		{"README.md", "| Check | Root marker | What it rejects |", regexp.MustCompile("^\\| `(\\w+)` \\|")},
		{"DESIGN.md", "| Pass | Flags | Stays legal / cut by |", regexp.MustCompile(`^\| \*\*(\w+)\*\*`)},
	} {
		data, err := os.ReadFile(filepath.Join(modDir, doc.file))
		if err != nil {
			t.Fatal(err)
		}
		_, table, found := strings.Cut(string(data), doc.header+"\n")
		if !found {
			t.Errorf("%s: no table headed %q", doc.file, doc.header)
			continue
		}
		var got []string
		for _, line := range strings.Split(table, "\n") {
			if !strings.HasPrefix(line, "|") {
				break
			}
			if m := doc.row.FindStringSubmatch(line); m != nil {
				got = append(got, m[1])
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists checks %v; lint.All() has %v", doc.file, got, want)
		}
	}
}
