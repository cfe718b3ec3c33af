package cluster_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dandelion/internal/cluster"
	"dandelion/internal/core"
)

// The invoke surface is one request type and two calls. Tenants, keys
// and deadlines once arrived as method suffixes (InvokeAs, InvokeCtx,
// InvokeKeyedAsCtx, ...) glued by capability interfaces; these guards
// fail the moment that pattern regrows.

func TestInvokeMethodSurface(t *testing.T) {
	want := []string{"Invoke", "InvokeBatch"}
	for _, v := range []any{(*core.Platform)(nil), (*cluster.Manager)(nil), (*cluster.RemoteNode)(nil)} {
		typ := reflect.TypeOf(v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Invoke") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v exports Invoke* methods %v, want exactly %v", typ, got, want)
		}
	}
}

// TestNoInvokeCapabilityInterfaces: Node is the only exported interface
// of this package that declares an Invoke* method, and the package
// exports at most four interfaces in all (Node, Admin, BreakerNode and
// one to spare) where it once had eleven.
func TestNoInvokeCapabilityInterfaces(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, f := range pkgs["cluster"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			exported = append(exported, ts.Name.Name)
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					if strings.HasPrefix(name.Name, "Invoke") && ts.Name.Name != "Node" {
						t.Errorf("interface %s declares %s: Node is the one invoke interface", ts.Name.Name, name.Name)
					}
				}
			}
			return true
		})
	}
	sort.Strings(exported)
	if len(exported) == 0 || len(exported) > 4 {
		t.Errorf("package cluster exports %d interfaces %v, want 1..4", len(exported), exported)
	}
}

// TestNewManagerTakesNoArgument: the manager has one selection rule and
// always keys its retries, so there is no balancing policy or retry
// switch to choose at construction.
func TestNewManagerTakesNoArgument(t *testing.T) {
	if n := reflect.TypeOf(cluster.NewManager).NumIn(); n != 0 {
		t.Fatalf("NewManager takes %d arguments, want none", n)
	}
}
