package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The instrument must not move when the code it measures is
// rewritten, so it may import only the leaf layers it probes — never
// the invoke API (root package, core, frontend, cluster) or the load
// generator those rewrites touch. core is allowed for one name: the
// ComputeFunc type the workloads.Registrar interface mentions.
var allowedImports = map[string]bool{
	"dandelion/internal/wire":      true,
	"dandelion/internal/memctx":    true,
	"dandelion/internal/workloads": true,
	"dandelion/internal/ssb":       true,
	"dandelion/internal/qoiimg":    true,
	"dandelion/internal/dvm":       true,
	"dandelion/internal/isolation": true,
	"dandelion/internal/sched":     true,
	"dandelion/internal/engine":    true,
	"dandelion/internal/autoscale": true,
	"dandelion/internal/journal":   true,
	"dandelion/internal/core":      true, // core.ComputeFunc only, checked below
}

func TestImportSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		coreName := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); !strings.Contains(first, ".") && first != "dandelion" {
				continue // standard library
			}
			if !allowedImports[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's allow-list", name, path)
			}
			if path == "dandelion/internal/core" {
				coreName = "core"
				if imp.Name != nil {
					coreName = imp.Name.Name
				}
			}
		}
		if coreName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == coreName && pkg.Obj == nil && sel.Sel.Name != "ComputeFunc" {
				t.Errorf("%s: %s.%s: only core.ComputeFunc may be named", fset.Position(sel.Pos()), coreName, sel.Sel.Name)
			}
			return true
		})
	}
}
