package exchange

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLayering holds the package boundary: the data layer does not know
// the routing layer, and the routing layer declares no run algebra.
func TestLayering(t *testing.T) {
	algebra := regexp.MustCompile(`(?i)sort|merge|diff`)
	for _, dir := range []string{"../relation", "."} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if dir == "../relation" && imp.Path.Value == `"repro/internal/exchange"` {
					t.Errorf("%s imports internal/exchange", name)
				}
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && dir == "." && algebra.MatchString(fn.Name.Name) && fn.Name.Name != "MergeRuns" {
					t.Errorf("%s declares %s: sorts, merges and diffs belong to internal/relation", name, fn.Name.Name)
				}
			}
		}
	}
}
