package allocator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMapsBesideTheInput keeps the allocator on numbers from the solver to
// the diff. Its non-test code states a map type only in the shape of its input
// (Input, ServerInfo) and in the from-Input constructor's one resolution of
// server names to buckets, bucketOf: a placement keyed by shard or server name
// — a proposal to compare names with, a set of live servers, a final placement
// returned beside the moves, a kept problem's name index — fails here.
func TestNoMapsBesideTheInput(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					return n.Name.Name != "Input" && n.Name.Name != "ServerInfo"
				case *ast.AssignStmt:
					id, ok := n.Lhs[0].(*ast.Ident)
					return !ok || id.Name != "bucketOf" || fn == nil || fn.Name.Name != "fromInput"
				case *ast.MapType:
					t.Errorf("%s: %s: the allocator states a map only in Input, ServerInfo and fromInput's bucketOf",
						fset.Position(n.Pos()), types.ExprString(n))
				}
				return true
			})
		}
	}
}
