package doccheck

import (
	"go/ast"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPropertiesWrittenInTheLanguage keeps the property language the one
// way a property is written. Program files outside internal/property —
// the Table 2 witnesses, the daemons, the examples, the benchmarks —
// parse text (property.Parse, property.ParseAll, the catalogue); none
// assembles a property.Property or property.Stage by hand: no composite
// literal of either type (an element of a []property.Stage literal
// included) and no new(...) of one. Tests
// may build an AST as a literal where the parser refuses the property
// they need. No Go file, tests included, calls the Go builder the
// language replaced (property.New, property.Builder, MustBuild,
// UnlessWithin).
func TestPropertiesWrittenInTheLanguage(t *testing.T) {
	builder := map[string]bool{"MustBuild": true, "UnlessWithin": true}
	dirs := 0
	err := filepath.WalkDir("../..", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && name != "." && name != ".." {
			return filepath.SkipDir
		}
		if !hasGoFile(t, dir) {
			return nil
		}
		dirs++
		scanDir(t, dir, isGoFile, func(at func(ast.Node) string, file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (builder[sel.Sel.Name] || isProperty(sel, "New") || isProperty(sel, "Builder")) {
					t.Errorf("%s/%s: the Go property builder is back (%s); write the property in the language", dir, at(n), sel.Sel.Name)
				}
				return true
			})
		})
		if !hasSourceFile(t, dir) || filepath.Base(dir) == "property" && filepath.Base(filepath.Dir(dir)) == "internal" {
			return nil
		}
		byHand := func(at func(ast.Node) string, n ast.Node) {
			t.Errorf("%s/%s: a property assembled by hand; write it in the language and parse it", dir, at(n))
		}
		scanDir(t, dir, isSourceFile, func(at func(ast.Node) string, file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isAST(n.Type) {
						byHand(at, n)
					}
					if !isAST(elemType(n.Type)) {
						break
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
							byHand(at, lit)
						}
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 && isAST(n.Args[0]) {
						byHand(at, n)
					}
				}
				return true
			})
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirs < 30 {
		t.Fatalf("walk found only %d directories with Go files", dirs)
	}
}

// isProperty reports whether sel is property.<name>.
func isProperty(sel *ast.SelectorExpr, name string) bool {
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "property" && sel.Sel.Name == name
}

// isAST reports whether expr is the type property.Property or
// property.Stage, or a pointer to one.
func isAST(expr ast.Expr) bool {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	sel, ok := expr.(*ast.SelectorExpr)
	return ok && (isProperty(sel, "Property") || isProperty(sel, "Stage"))
}

// elemType is the element type of an array, slice or map type, nil for
// any other expression.
func elemType(expr ast.Expr) ast.Expr {
	switch t := expr.(type) {
	case *ast.ArrayType:
		return t.Elt
	case *ast.MapType:
		return t.Value
	}
	return nil
}

// isGoFile reports whether name is Go source, tests included.
func isGoFile(name string) bool { return strings.HasSuffix(name, ".go") }

// hasGoFile reports whether dir holds any Go source, tests included.
func hasGoFile(t *testing.T, dir string) bool {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches) > 0
}
