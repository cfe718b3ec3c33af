package dandelion_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// modelPkgs lists the trees of the paper's analytic model: everything
// under internal/model/, and the three leaf libraries it is built on
// that still sit at their old paths.
var modelPkgs = []string{"internal/model/", "internal/sim/", "internal/sqlmini/", "internal/trace/"}

// modelSide lists the trees that may import the model: the model
// itself, the driver that prints its figures, and the examples. The
// model may import serving packages; serving never imports the model.
var modelSide = append([]string{"cmd/experiments/", "examples/"}, modelPkgs...)

// isModel reports whether import path p names a model package.
func isModel(p string) bool {
	for _, dir := range modelPkgs {
		if pkg := "dandelion/" + dir; p == strings.TrimSuffix(pkg, "/") || strings.HasPrefix(p, pkg) {
			return true
		}
	}
	return false
}

// TestServingNeverImportsModel parses the imports of every non-test Go
// file in the module and fails when a file outside modelSide imports a
// model package. Test files are exempt: a serving test may drive the
// model's simulator.
func TestServingNeverImportsModel(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		slash := filepath.ToSlash(path)
		for _, dir := range modelSide {
			if strings.HasPrefix(slash, dir) {
				return nil
			}
		}
		checked++
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if isModel(p) {
				t.Errorf("%s imports %s: serving code must not import the model", slash, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no serving Go file found")
	}
}
