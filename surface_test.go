package scorep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// facadeNames lists the exported top-level names declared in the root
// package's non-test files, one "file name" line each, sorted by file
// and name. Methods are not listed: they belong to their type.
func facadeNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				names = append(names, path+" "+id.Name)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestFacadeSurface holds the root package's exported names to
// testdata/facade.golden, so that a name added to or taken from the
// facade shows in review as a change to that file.
func TestFacadeSurface(t *testing.T) {
	got := strings.Join(facadeNames(t), "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "facade.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the facade's exported names differ from testdata/facade.golden; if the change is meant, write this list there:\n%s", got)
	}
}
