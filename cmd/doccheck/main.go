// Command doccheck is the documentation gate run by CI. It has three
// checks:
//
//  1. Undocumented exports: for every Go package named on the command
//     line (directories, with the ./... wildcard supported), it parses
//     the package with go/doc and reports every exported constant,
//     variable, function, type, and method that lacks a doc comment,
//     plus packages missing a package comment.
//  2. Markdown snippets: for every file passed via -md, it extracts
//     the fenced ```go code blocks and checks they are gofmt-clean
//     (snippets that are declaration fragments are wrapped in a
//     synthetic package clause first; blocks that still do not parse
//     are reported).
//  3. Dangling document references: a comment in any Go file of the
//     named packages (test files included), or a line of a -md file,
//     that cites a repository-root document by its bare upper-case
//     name (README.md, ARCHITECTURE.md, …) is reported when no such
//     file exists in the working directory, which CI makes the
//     repository root.
//
// doccheck exits non-zero when any finding is reported, so it can gate
// a CI job:
//
//	go run ./cmd/doccheck -md README.md -md ARCHITECTURE.md ./internal/... ./cmd/...
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdFlags collects repeated -md flags.
type mdFlags []string

// String renders the flag value for -help.
func (m *mdFlags) String() string { return strings.Join(*m, ",") }

// Set appends one -md occurrence.
func (m *mdFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var md mdFlags
	flag.Var(&md, "md", "markdown file whose ```go blocks must be gofmt-clean (repeatable)")
	flag.Parse()
	findings, err := run(".", flag.Args(), md)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// run performs the checks and returns the findings; root is the
// directory root documents are looked up in.
func run(root string, pkgArgs []string, mdFiles []string) ([]string, error) {
	var findings []string
	dirs, err := expandDirs(pkgArgs)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		fs, err := checkPackageDir(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
		fs, err = checkGoDocRefs(root, dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	for _, file := range mdFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		findings = append(findings, checkMarkdown(file, string(data))...)
		findings = append(findings, missingDocs(root, file, 1, string(data))...)
	}
	return findings, nil
}

// rootDocRef matches a bare upper-case markdown file name — how the
// repository's comments cite its root documents. A name preceded by a
// path separator is a path, resolved by its own rules, and is skipped.
var rootDocRef = regexp.MustCompile(`(^|[^A-Za-z0-9_./-])([A-Z][A-Z0-9_]*\.md)\b`)

// missingDocs reports every root-document name cited in text that does
// not exist under root; line is the 1-based line text starts on.
func missingDocs(root, file string, line int, text string) []string {
	var findings []string
	for i, l := range strings.Split(text, "\n") {
		for _, m := range rootDocRef.FindAllStringSubmatch(l, -1) {
			if _, err := os.Stat(filepath.Join(root, m[2])); err != nil {
				findings = append(findings, fmt.Sprintf("%s:%d: reference to %s, which does not exist in the repository root", file, line+i, m[2]))
			}
		}
	}
	return findings
}

// checkGoDocRefs applies missingDocs to every comment of every Go file
// in dir, test files included.
func checkGoDocRefs(root, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				findings = append(findings, missingDocs(root, path, fset.Position(c.Pos()).Line, c.Text)...)
			}
		}
	}
	return findings, nil
}

// expandDirs resolves arguments into package directories; a trailing
// /... walks the tree for directories containing Go files, skipping
// testdata and hidden directories.
func expandDirs(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		root, wild := strings.CutSuffix(arg, "/...")
		if !wild {
			out = append(out, arg)
			continue
		}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if base == "testdata" || (strings.HasPrefix(base, ".") && path != root) || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			hasGo, err := dirHasGoFiles(path)
			if err != nil {
				return err
			}
			if hasGo {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// checkPackageDir reports undocumented exported symbols of the package
// in dir (test files excluded).
func checkPackageDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, kind, name))
	}
	for _, astPkg := range pkgs {
		d := doc.New(astPkg, dir, 0)
		if d.Doc == "" {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, d.Name))
		}
		for _, v := range append(append([]*doc.Value(nil), d.Consts...), d.Vars...) {
			if v.Doc != "" {
				continue
			}
			for _, name := range v.Names {
				if ast.IsExported(name) {
					report(v.Decl.Pos(), "const/var", name)
				}
			}
		}
		for _, f := range d.Funcs {
			if f.Doc == "" && ast.IsExported(f.Name) {
				report(f.Decl.Pos(), "function", f.Name)
			}
		}
		for _, t := range d.Types {
			if ast.IsExported(t.Name) {
				if t.Doc == "" {
					report(t.Decl.Pos(), "type", t.Name)
				}
				findings = append(findings, checkTypeMembers(fset, t)...)
			}
		}
	}
	return findings, nil
}

// checkTypeMembers reports undocumented exported methods,
// constructors, and grouped values of one documented type.
func checkTypeMembers(fset *token.FileSet, t *doc.Type) []string {
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, kind, name))
	}
	for _, f := range t.Funcs {
		if f.Doc == "" && ast.IsExported(f.Name) {
			report(f.Decl.Pos(), "function", f.Name)
		}
	}
	for _, m := range t.Methods {
		if m.Doc == "" && ast.IsExported(m.Name) {
			report(m.Decl.Pos(), "method", t.Name+"."+m.Name)
		}
	}
	for _, v := range append(append([]*doc.Value(nil), t.Consts...), t.Vars...) {
		if v.Doc != "" {
			continue
		}
		for _, name := range v.Names {
			if ast.IsExported(name) {
				report(v.Decl.Pos(), "const/var", name)
			}
		}
	}
	return findings
}

// checkMarkdown extracts ```go fenced blocks and reports blocks that
// are not gofmt-clean (or do not parse even as declaration fragments).
func checkMarkdown(file, text string) []string {
	var findings []string
	for _, block := range goBlocks(text) {
		ok, why := snippetFormatted(block.code)
		if !ok {
			findings = append(findings, fmt.Sprintf("%s:%d: go snippet %s", file, block.line, why))
		}
	}
	return findings
}

// goBlock is one fenced ```go region of a markdown file.
type goBlock struct {
	line int // 1-based line of the opening fence
	code string
}

// goBlocks scans markdown for ```go fences.
func goBlocks(md string) []goBlock {
	var blocks []goBlock
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		fence := strings.TrimSpace(lines[i])
		if fence != "```go" {
			continue
		}
		start := i + 1
		j := start
		for ; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) == "```" {
				break
			}
		}
		blocks = append(blocks, goBlock{line: i + 1, code: strings.Join(lines[start:j], "\n")})
		i = j
	}
	return blocks
}

// snippetFormatted checks one snippet. Full files must be gofmt-clean
// as-is; fragments are wrapped in a synthetic package clause and must
// be gofmt-clean under the wrap.
func snippetFormatted(code string) (bool, string) {
	src := strings.TrimRight(code, "\n") + "\n"
	if formatted, err := format.Source([]byte(src)); err == nil {
		if string(formatted) != src {
			return false, "is not gofmt-clean"
		}
		return true, ""
	}
	// Fragment: wrap into a synthetic file. The snippet keeps its own
	// indentation, so formatting must round-trip exactly.
	wrapped := "package snippet\n\n" + src
	formatted, err := format.Source([]byte(wrapped))
	if err != nil {
		// Statement-level fragment: wrap into a function body, indented
		// one tab as gofmt would print it.
		indented := "\t" + strings.ReplaceAll(strings.TrimRight(src, "\n"), "\n", "\n\t") + "\n"
		indented = strings.ReplaceAll(indented, "\t\n", "\n") // keep blank lines blank
		fnWrapped := "package snippet\n\nfunc _() {\n" + indented + "}\n"
		fnFormatted, fnErr := format.Source([]byte(fnWrapped))
		if fnErr != nil {
			return false, fmt.Sprintf("does not parse: %v", err)
		}
		if string(fnFormatted) != fnWrapped {
			return false, "is not gofmt-clean"
		}
		return true, ""
	}
	if string(formatted) != wrapped {
		return false, "is not gofmt-clean"
	}
	return true, ""
}
