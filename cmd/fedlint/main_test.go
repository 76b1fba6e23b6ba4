package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
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
