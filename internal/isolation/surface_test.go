package isolation

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// The sandbox is one concrete type with one Execute. The package once
// had two exported interfaces and four Execute methods that each called
// dvm.Run; this guard fails the moment a second execution path or an
// interface to select between paths regrows. The backend names live on
// as cost profiles for the model.
func TestOneSandboxSurface(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var executes []string
	for _, f := range pkgs["isolation"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if _, ok := n.Type.(*ast.InterfaceType); ok && n.Name.IsExported() {
					t.Errorf("package isolation declares exported interface %s, want none", n.Name.Name)
				}
			case *ast.FuncDecl:
				if n.Name.Name == "Execute" {
					recv := "func"
					if n.Recv != nil {
						recv = recvName(n.Recv.List[0].Type)
					}
					executes = append(executes, recv)
				}
			}
			return true
		})
	}
	if len(executes) != 1 {
		t.Errorf("package isolation declares Execute on %v, want exactly one", executes)
	}
}

// recvName renders a receiver type expression: T or *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		return "*" + recvName(star.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
