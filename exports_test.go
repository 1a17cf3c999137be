package sdr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// keptForTests names the exported functions ("internal/pkg.Name") and
// methods ("internal/pkg.Type.Name") under internal/ that only tests use,
// each with the reason it stays in the package that declares it.
var keptForTests = map[string]string{
	"internal/unison.MaxStandaloneMovesPerProcess":   "Lemma 20's per-process move bound, checked by the unison tests",
	"internal/alliance.MaxStandaloneMovesPerProcess": "Lemma 25's per-process move bound, checked by the alliance tests",
	"internal/unison.MaxBaselineStabilizationMoves":  "the baseline's proven move bound, checked by the unison tests",
	"internal/sim.StateSpace":                        "state-space listing shared by the tests of several packages",
	"internal/sim.EnabledRules":                      "enabled-rule oracle shared by the tests of several packages",
	"internal/checker.CheckClosure":                  "closure check shared by the tests of several packages",
	"internal/core.CheckRequirements":                "the paper's requirements on an inner algorithm, checked by the tests of several packages",
	"internal/graph.FromEdges":                       "graph constructor shared by the tests of several packages",
}

// TestExportedFunctionsHaveProductionCallers fails when a top-level exported
// function in a non-test file under internal/ is named by no non-test file of
// the module or of perfbench/, or when an exported method's name appears in
// no non-test file outside function declarations (a name scan: a method
// shares its name with every other method, field or identifier so named).
// Such a function or method belongs in a _test.go file, or in keptForTests
// with its reason.
func TestExportedFunctionsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{} // "internal/pkg.Name"
	used := map[string]bool{}
	methods := map[string]string{} // "internal/pkg.Recv.Name" -> "Name"
	names := map[string]bool{}     // every identifier but declared function names
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != "." || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> directory in the module
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, "sdr/")
		}
		qualified := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
					if n.Recv == nil {
						declared[dir+"."+n.Name.Name] = true
					} else {
						methods[dir+"."+receiverName(n.Recv.List[0].Type)+"."+n.Name.Name] = n.Name.Name
					}
				}
				qualified[n.Name] = true
			case *ast.SelectorExpr:
				qualified[n.Sel] = true
				names[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !qualified[n] {
					names[n.Name] = true
					used[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range keptForTests {
		if !declared[name] && methods[name] == "" {
			t.Errorf("keptForTests names %s, which is not declared", name)
		}
	}
	for name := range declared {
		if !used[name] && keptForTests[name] == "" {
			t.Errorf("%s has no caller outside tests: move it into a _test.go file or delete it", name)
		}
	}
	for name, method := range methods {
		if !names[method] && keptForTests[name] == "" {
			t.Errorf("method %s is named by no non-test file outside function declarations: move it into a _test.go file or delete it", name)
		}
	}
}

// receiverName returns the type name of a method receiver (T, *T or a
// generic T[P]).
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
