package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPackageDirFindsUndocumented(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.go"), `package pkg

type Undocumented struct{}

func (u Undocumented) NoDoc() {}

// Documented is fine.
func Documented() {}

const Exported = 1

// unexported things never count.
func internal() {}

var hidden = 2
`)
	findings, err := checkPackageDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{
		"package pkg has no package comment",
		"undocumented exported type Undocumented",
		"undocumented exported method Undocumented.NoDoc",
		"undocumented exported const/var Exported",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Documented") || strings.Contains(joined, "internal") || strings.Contains(joined, "hidden") {
		t.Errorf("false positive in:\n%s", joined)
	}
}

func TestCheckPackageDirCleanPackage(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.go"), `// Package pkg is documented.
package pkg

// T is documented.
type T struct{}

// M is documented.
func (T) M() {}
`)
	// Test files must not be scanned.
	write(t, filepath.Join(dir, "a_test.go"), `package pkg

func TestHelperWithoutDoc() {}
`)
	findings, err := checkPackageDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("clean package flagged: %v", findings)
	}
}

func TestExpandDirsWildcard(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "a", "a.go"), "package a\n")
	write(t, filepath.Join(root, "a", "b", "b.go"), "package b\n")
	write(t, filepath.Join(root, "testdata", "x.go"), "package x\n")
	write(t, filepath.Join(root, "nogo", "data.txt"), "hi\n")
	write(t, filepath.Join(root, "onlytests", "x_test.go"), "package onlytests\n")
	dirs, err := expandDirs([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(dirs, "\n")
	if !strings.Contains(joined, filepath.Join(root, "a")) || !strings.Contains(joined, filepath.Join(root, "a", "b")) {
		t.Errorf("wildcard missed package dirs: %v", dirs)
	}
	if strings.Contains(joined, "testdata") || strings.Contains(joined, "nogo") || strings.Contains(joined, "onlytests") {
		t.Errorf("wildcard included non-package dirs: %v", dirs)
	}
}

func TestGoBlocks(t *testing.T) {
	md := "intro\n```go\nx := 1\n```\nmiddle\n```sh\nls\n```\n```go\ny := 2\n```\n"
	blocks := goBlocks(md)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0].code != "x := 1" || blocks[1].code != "y := 2" {
		t.Errorf("blocks = %+v", blocks)
	}
	if blocks[0].line != 2 {
		t.Errorf("first block line = %d, want 2", blocks[0].line)
	}
}

func TestSnippetFormatted(t *testing.T) {
	cases := []struct {
		name string
		code string
		ok   bool
	}{
		{"full file", "package x\n\nfunc F() {}", true},
		{"declaration fragment", "// F does things.\nfunc F() int {\n\treturn 1\n}", true},
		{"statement fragment", "x := 1\n_ = x", true},
		{"unformatted", "func  F(){\nx:=1\n_=x\n}", false},
		{"garbage", "this is ) not go (", false},
	}
	for _, c := range cases {
		ok, why := snippetFormatted(c.code)
		if ok != c.ok {
			t.Errorf("%s: ok=%v (%s), want %v", c.name, ok, why, c.ok)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p", "p.go"), "// Package p.\npackage p\n")
	write(t, filepath.Join(dir, "doc.md"), "```go\nx := 1\n_ = x\n```\n")
	findings, err := run(dir, []string{dir + "/..."}, []string{filepath.Join(dir, "doc.md")})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("clean tree flagged: %v", findings)
	}
	write(t, filepath.Join(dir, "p", "q.go"), "package p\n\nfunc Oops() {}\n")
	write(t, filepath.Join(dir, "bad.md"), "```go\nfunc  f(){}\n```\n")
	findings, err = run(dir, []string{dir + "/..."}, []string{filepath.Join(dir, "bad.md")})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Errorf("want 2 findings, got %v", findings)
	}
}

// TestMissingRootDocs: a bare upper-case *.md name cited in a Go
// comment (test files included) or a markdown file must exist in the
// root; paths, lower-case names and string literals are not citations.
func TestMissingRootDocs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "See DESIGN.md and README.md; bench/NOTES.md is a path.\n")
	write(t, filepath.Join(dir, "p", "p.go"), `// Package p is described in README.md.
package p

// F follows GONE.md §2 (and docs/OTHER.md, a path).
func F() string { return "LITERAL.md" }
`)
	write(t, filepath.Join(dir, "p", "p_test.go"), "package p\n\n// see TESTONLY.md and notes.md\n")
	findings, err := run(dir, []string{filepath.Join(dir, "p")}, []string{filepath.Join(dir, "README.md")})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"p.go:4: reference to GONE.md", "p_test.go:3: reference to TESTONLY.md", "README.md:1: reference to DESIGN.md"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	if len(findings) != 3 {
		t.Errorf("want 3 findings, got:\n%s", joined)
	}
}
